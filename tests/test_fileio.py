import os
import stat

import pytest

from asc.cli import main
from asc.fileio import atomic_write


@pytest.mark.parametrize("mask, mode", [(0o022, 0o644), (0o002, 0o664)], ids=["022", "002"])
def test_outputs_follow_umask(tmp_path, mask, mode):
    model, data = tmp_path / "m.ascm", tmp_path / "d.txt"
    previous = os.umask(mask)
    try:
        assert main(["synth", "--layers", "1", "--hidden-dim", "4", "--heads", "2",
                     "--ffn-dim", "8", "--vocab", "10", "--seed", "0", "--out", str(model)]) == 0
        assert main(["gen-data", "--sequences", "2", "--min-len", "1", "--max-len", "3",
                     "--vocab", "10", "--seed", "0", "--out", str(data)]) == 0
    finally:
        os.umask(previous)
    for path in (model, data):
        assert stat.S_IMODE(os.stat(path).st_mode) == mode


def test_failed_write_leaves_nothing(tmp_path):
    target = tmp_path / "out.txt"
    with pytest.raises(RuntimeError):
        with atomic_write(target) as handle:
            handle.write("partial")
            raise RuntimeError("boom")
    assert list(tmp_path.iterdir()) == []


def test_replaces_existing_file(tmp_path):
    target = tmp_path / "out.bin"
    target.write_bytes(b"old")
    with atomic_write(target, "wb") as handle:
        handle.write(b"new")
    assert target.read_bytes() == b"new"
    assert list(tmp_path.iterdir()) == [target]


def test_os_error_names_the_target_not_the_temp_file(tmp_path):
    target = tmp_path / "missing" / "out.txt"
    with pytest.raises(FileNotFoundError) as caught:
        with atomic_write(target) as handle:
            handle.write("never")
    assert caught.value.filename == str(target)
    assert ".tmp-" not in str(caught.value)
