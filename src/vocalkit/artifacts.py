"""How every file vocalkit writes reaches disk: streamed into a temp file in
the same directory, then renamed over the final path, so a writer that
raises or a process that is killed leaves the previous file or none, never a
truncated one that a later stage would accept."""

from __future__ import annotations

import contextlib
import csv
import json
import os


def write_file(path, write) -> None:
    """Call write(fh) on a fresh text file that replaces path once write
    returns.  The file is made with open, so its mode follows the umask."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_csv(path, header, rows) -> None:
    def write(fh):
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)

    write_file(path, write)


def write_json(path, obj) -> None:
    write_file(path, lambda fh: json.dump(obj, fh, indent=1, sort_keys=True))


def write_jsonl(path, records) -> None:
    write_file(path, lambda fh: fh.writelines(json.dumps(r) + "\n" for r in records))
