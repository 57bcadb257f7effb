"""Byte identity of the report files: the studies of ``make_report_digests``
rerun through ``cli.main`` and compared with ``report_digests.json``.

The digests hold for the Python, numpy and scipy versions and the OpenBLAS
cores recorded with them; on any other the test skips and names both. A change that moves
report bytes on purpose reruns ``tests/make_report_digests.py``.
"""
import json

import pytest

import make_report_digests as corpus

RECORDED = json.loads(corpus.DIGESTS.read_text())


def _first_moved(name: str, data: bytes, lines: list[str]) -> str:
    """Where file ``name`` first departs from its recorded line hashes."""
    now = corpus.file_record(name, data)["lines"]
    k = next((i for i, (a, b) in enumerate(zip(now, lines)) if a != b), min(len(now), len(lines)))
    if k == len(now):
        return f"line {k + 1}: file now ends ({len(now)} lines, recorded {len(lines)})"
    text = data.splitlines()[k].decode(errors="replace")
    return f"line {k + 1} now reads {text[:160]!r}"


def test_corpus_lists_the_recorded_studies():
    assert {k: v["argv"] for k, v in RECORDED["studies"].items()} == corpus.STUDIES, (
        "the study list changed: rerun tests/make_report_digests.py")


def test_report_bytes_match_the_recorded_digests(tmp_path, monkeypatch):
    if RECORDED["versions"] != corpus.versions():
        pytest.skip(f"report digests recorded on {RECORDED['versions']}, "
                    f"this is {corpus.versions()}")
    monkeypatch.delenv("RADIALOPF_CASE_DIR", raising=False)
    monkeypatch.chdir(tmp_path)  # no case file resolves against the working directory
    corpus.write_inputs(tmp_path)
    moved = []
    for name in corpus.STUDIES:
        record, files = corpus.run_study(name, tmp_path)
        want = RECORDED["studies"][name]
        for key in ("exit", "stderr"):
            if record[key] != want[key]:
                moved.append(f"{name}: {key} {record[key]!r}, recorded {want[key]!r}")
        if record["files"].keys() != want["files"].keys():
            moved.append(f"{name}: report files {sorted(record['files'])}, "
                         f"recorded {sorted(want['files'])}")
        for f in record["files"].keys() & want["files"].keys():
            if record["files"][f]["sha256"] != want["files"][f]["sha256"]:
                moved.append(f"{name}: {f} {_first_moved(f, files[f], want['files'][f]['lines'])}")
    assert not moved, "report bytes moved:\n" + "\n".join(moved)
