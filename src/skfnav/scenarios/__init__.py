"""Truth and measurement generators for the two simulation scenarios."""
