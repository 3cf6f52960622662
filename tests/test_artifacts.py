import os
import stat

import pytest

from vocalkit.artifacts import write_csv, write_json, write_jsonl


def test_csv_rows_that_raise_leave_the_previous_file(tmp_path):
    path = tmp_path / "grid.csv"
    write_csv(path, ["a", "b"], [[1, 2]])
    before = path.read_bytes()

    def rows():
        yield [3, 4]
        raise RuntimeError("row source failed")

    with pytest.raises(RuntimeError, match="row source failed"):
        write_csv(path, ["a", "b"], rows())
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["grid.csv"]


def test_formats(tmp_path):
    write_csv(tmp_path / "t.csv", ["x", "y"], [["a,b", 1.5]])
    write_json(tmp_path / "t.json", {"b": [1], "a": None})
    write_jsonl(tmp_path / "t.jsonl", [{"b": 1, "a": 2}, {}])
    assert (tmp_path / "t.csv").read_bytes() == b'x,y\r\n"a,b",1.5\r\n'
    assert (tmp_path / "t.json").read_bytes() == b'{\n "a": null,\n "b": [\n  1\n ]\n}'
    assert (tmp_path / "t.jsonl").read_bytes() == b'{"b": 1, "a": 2}\n{}\n'


@pytest.mark.parametrize("umask", [0o022, 0o027])
def test_mode_follows_the_umask_like_open(tmp_path, umask):
    previous = os.umask(umask)
    try:
        write_json(tmp_path / "artifact.json", {})
        with open(tmp_path / "plain.json", "w"):
            pass
    finally:
        os.umask(previous)
    modes = {stat.S_IMODE(os.stat(tmp_path / n).st_mode) for n in ("artifact.json", "plain.json")}
    assert modes == {0o666 & ~umask}
