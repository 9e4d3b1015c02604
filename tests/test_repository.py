"""Repository hygiene: no file that .gitignore excludes is tracked."""

import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)


def test_no_ignored_file_is_tracked():
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    top = git("rev-parse", "--show-toplevel")
    if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
        pytest.skip("the repository root is not a git work tree")
    tracked = git("ls-files", "-ci", "--exclude-standard")
    assert tracked.returncode == 0, tracked.stderr
    assert tracked.stdout.split() == []
