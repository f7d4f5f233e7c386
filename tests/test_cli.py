import csv
import importlib
import io
import os
import pkgutil
import struct

import pytest

import lcex
from lcex import suffixes
from lcex.cli import BENCH_COLUMNS, main

from conftest import EXAMPLE_W, FIG_W, fib_word


@pytest.fixture()
def corpus(tmp_path):
    p = tmp_path / "corpus.bin"
    p.write_bytes(EXAMPLE_W)
    return str(p)


@pytest.fixture()
def index_file(tmp_path, corpus, capsys):
    out = str(tmp_path / "corpus.lcex")
    assert main(["build", corpus, "--t", "4", "-o", out]) == 0
    capsys.readouterr()   # drain the build report so tests see only their own output
    return out


def test_build_writes_magic(tmp_path, corpus):
    out = str(tmp_path / "x.lcex")
    assert main(["build", corpus, "--t", "4", "-o", out]) == 0
    with open(out, "rb") as fh:
        assert fh.read(4) == b"LCEX"


def test_build_rejects_t0(tmp_path, corpus):
    out = str(tmp_path / "x.lcex")
    assert main(["build", corpus, "--t", "0", "-o", out]) == 2


def test_build_missing_input(tmp_path):
    assert main(["build", str(tmp_path / "nope"), "--t", "4",
                 "-o", str(tmp_path / "x.lcex")]) == 3


def test_query_pair(capsys, index_file):
    assert main(["query", index_file, "--pair", "1", "8"]) == 0
    assert capsys.readouterr().out.strip() == "1 8 14"


def test_query_diagonal(capsys, index_file):
    assert main(["query", index_file, "--pair", "5", "5"]) == 0
    n = len(EXAMPLE_W) + 1
    assert capsys.readouterr().out.strip() == f"5 5 {n - 5 + 1}"


def test_query_random_deterministic(capsys, index_file):
    assert main(["query", index_file, "--random", "1000", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["query", index_file, "--random", "1000", "--seed", "7"]) == 0
    assert capsys.readouterr().out == first


def test_query_pairs_file(capsys, tmp_path, index_file):
    pf = tmp_path / "pairs.txt"
    pf.write_text("1 8\n2 9\n")
    assert main(["query", index_file, "--pairs-file", str(pf)]) == 0
    assert capsys.readouterr().out.splitlines() == ["1 8 14", "2 9 13"]


def test_query_out_of_range_line(capsys, index_file):
    assert main(["query", index_file, "--pair", "1", "99"]) == 2
    assert "error" in capsys.readouterr().out


def test_query_bad_index(tmp_path, capsys):
    bad = tmp_path / "bad.lcex"
    bad.write_bytes(b"XXXXgarbage")
    assert main(["query", str(bad), "--pair", "1", "2"]) == 3


def test_query_rejects_trailing_junk(tmp_path, index_file):
    bad = tmp_path / "junk.lcex"
    with open(index_file, "rb") as fh:
        bad.write_bytes(fh.read() + b"\x00")
    assert main(["query", str(bad), "--pair", "1", "2"]) == 3


def test_query_rejects_version_1_container(tmp_path, index_file):
    bad = tmp_path / "v1.lcex"
    with open(index_file, "rb") as fh:
        blob = fh.read()
    bad.write_bytes(blob[:4] + struct.pack("<H", 1) + blob[6:])
    assert main(["query", str(bad), "--pair", "1", "2"]) == 3


def test_query_rejects_version_3_container(tmp_path, index_file):
    bad = tmp_path / "v3.lcex"
    with open(index_file, "rb") as fh:
        blob = fh.read()
    bad.write_bytes(blob[:4] + struct.pack("<H", 3) + blob[6:])
    assert main(["query", str(bad), "--pair", "1", "2"]) == 3


def test_query_rejects_flipped_blockcode_t(tmp_path, index_file):
    with open(index_file, "rb") as fh:
        blob = bytearray(fh.read())
    pos = 8
    for _ in range(3):   # skip params, tst and navtree to the block code
        pos += 8 + struct.unpack_from("<Q", blob, pos)[0]
    assert struct.unpack_from("<Q", blob, pos + 8)[0] == 4
    struct.pack_into("<Q", blob, pos + 8, 2**40)
    bad = tmp_path / "flipped.lcex"
    bad.write_bytes(bytes(blob))
    assert main(["query", str(bad), "--pair", "1", "2"]) == 3


def test_query_rejects_huge_n_and_t(tmp_path, index_file):
    # n and t set to 2**40 everywhere they repeat: params, trie, navigation
    # tree, block code and stats; only the sampled count gives it away
    with open(index_file, "rb") as fh:
        blob = bytearray(fh.read())
    offs, pos = [], 8
    while pos < len(blob):
        offs.append(pos + 8)
        pos += 8 + struct.unpack_from("<Q", blob, pos)[0]
    params, trie, nav, bc, stats = offs
    for off in (params, params + 8, trie + 8, nav + 8, bc, bc + 8, stats + 56, stats + 64):
        struct.pack_into("<Q", blob, off, 2**40)
    bad = tmp_path / "huge.lcex"
    bad.write_bytes(bytes(blob))
    assert main(["query", str(bad), "--pair", "1", "2"]) == 3


def test_query_rejects_huge_packed_word_size(tmp_path):
    # the packed text's word size and its block code's t agree, so only the
    # word-size bound stops the block code from sizing a 2**40 cover
    corpus = tmp_path / "ab.bin"
    corpus.write_bytes(b"ab" * 60)
    path = tmp_path / "packed.lcex"
    assert main(["build", str(corpus), "--t", "4", "--packed", "-o", str(path)]) == 0
    blob = bytearray(path.read_bytes())
    offs, pos = [], 8
    while pos < len(blob):
        offs.append(pos + 8)
        pos += 8 + struct.unpack_from("<Q", blob, pos)[0]
    packed = offs[5]
    bits = struct.unpack_from("<Q", blob, packed + 33)[0]
    for off in (packed + 16, packed + 41 + bits):
        assert struct.unpack_from("<Q", blob, off)[0] == 64
        struct.pack_into("<Q", blob, off, 2**40)
    path.write_bytes(bytes(blob))
    assert main(["query", str(path), "--pair", "1", "2"]) == 3


def test_stats(capsys, index_file):
    assert main(["stats", index_file]) == 0
    out = capsys.readouterr().out
    assert "estimated_words=" in out and "t_prime=4" in out


def test_bench_csv(tmp_path, capsys):
    corp = tmp_path / "fib.bin"
    corp.write_bytes(fib_word(3000))
    out = str(tmp_path / "bench.csv")
    rc = main(["bench", "--input", str(corp), "--t", "8", "--queries", "500",
               "--seed", "3", "--csv", out])
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0].keys()) == BENCH_COLUMNS
    assert rows[0]["mismatches"] == "0"
    assert int(rows[0]["queries"]) == 500


def test_bench_with_prebuilt_index(tmp_path, corpus, index_file):
    out = str(tmp_path / "bench.csv")
    assert main(["bench", "--input", corpus, "--index", index_file,
                 "--queries", "200", "--csv", out]) == 0
    row = list(csv.DictReader(open(out)))[0]
    assert row["build_ms"] == "0.0"
    assert int(row["index_bytes"]) == os.path.getsize(index_file)


def test_lz77_reports_example(capsys, corpus):
    assert main(["lz77", corpus]) == 0
    assert "z=6 " in capsys.readouterr().out


def test_lz77_factor_list(capsys, corpus):
    assert main(["lz77", corpus, "--factors"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:7] == ["a", "b", "abab", "c", "abababcabababc", "d"]


def test_usage_error_exit_code():
    assert main(["build"]) == 2


def test_selftest(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_build_auto_tune_smaller_than_t1(tmp_path, capsys):
    corp = tmp_path / "aaa.bin"
    corp.write_bytes(b"a" * (10**6))
    tuned = str(tmp_path / "tuned.lcex")
    flat = str(tmp_path / "flat.lcex")
    assert main(["build", str(corp), "--auto-tune", "-o", tuned]) == 0
    assert "auto-tuned t=" in capsys.readouterr().out
    assert main(["build", str(corp), "--t", "1", "-o", flat]) == 0
    assert os.path.getsize(tuned) < os.path.getsize(flat)


@pytest.fixture()
def text_sorts(monkeypatch):
    """Records the input length of every suffix-array call, in every lcex
    module that holds the function."""
    calls = []
    real = suffixes.suffix_array

    def counting(seq):
        calls.append(len(seq))
        return real(seq)

    for info in pkgutil.iter_modules(lcex.__path__):
        mod = importlib.import_module(f"lcex.{info.name}")
        if getattr(mod, "suffix_array", None) is real:
            monkeypatch.setattr(mod, "suffix_array", counting)
    return calls


def test_build_auto_tune_sorts_text_once(tmp_path, text_sorts):
    raw = fib_word(3000)
    corp = tmp_path / "fib.bin"
    corp.write_bytes(raw)
    assert main(["build", str(corp), "--auto-tune", "-o", str(tmp_path / "x.lcex")]) == 0
    assert text_sorts.count(len(raw) + 1) == 1


def test_bench_auto_tune_sorts_text_twice(tmp_path, text_sorts):
    raw = fib_word(3000)
    corp = tmp_path / "fib.bin"
    corp.write_bytes(raw)
    assert main(["bench", "--input", str(corp), "--auto-tune", "--queries", "200",
                 "--csv", str(tmp_path / "b.csv")]) == 0
    # one shared sort for tuning, build and LZ77; the oracle keeps its own
    assert text_sorts.count(len(raw) + 1) == 2
