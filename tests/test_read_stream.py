"""Line-format ingest: pinned error messages, a differential check against
a per-line reference reader, one memo of lines per read, bounded memory,
and reads from a pipe."""

import hashlib
import os
import threading

import numpy as np
import pytest
from conftest import traced_peak

from sketchsim import harness
from sketchsim.harness import StreamFormatError, read_stream, token_id


def reference_read(path, fmt):
    """The per-line reader: one strip, check and blake2b hash per line."""
    ids = []
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            token = line.strip()
            if not token:
                raise StreamFormatError(f"{path}: line {lineno}: empty token")
            if fmt == "ipcsv":
                parts = token.split(",")
                if len(parts) != 2:
                    raise StreamFormatError(
                        f"{path}: line {lineno}: expected 'src,dst', got {token!r}"
                    )
                src, dst = parts[0].strip(), parts[1].strip()
                if not (src and dst):
                    raise StreamFormatError(f"{path}: line {lineno}: empty field in {token!r}")
                token = src + "," + dst
            try:
                digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
            except UnicodeEncodeError:
                raise StreamFormatError(f"{path}: line {lineno}: not valid UTF-8") from None
            ids.append(int.from_bytes(digest, "little"))
    return np.array(ids, dtype=np.uint64)


def read_error(path, fmt):
    with pytest.raises(StreamFormatError) as exc:
        read_stream(str(path), fmt)
    return str(exc.value)


@pytest.fixture
def small_block(monkeypatch):
    """A read block of 4 lines, so short files cross several blocks."""
    monkeypatch.setattr(harness, "READ_BLOCK", 4, raising=False)


class TestMessages:
    @pytest.mark.parametrize("fmt", ["text", "ipcsv"])
    @pytest.mark.parametrize(
        "body, lineno",
        [
            ("a,b\n\na,b\n", 2),  # empty line in the middle
            ("a,b\na,b\n\n", 3),  # empty line at the end
            ("a,b\n \t \na,b\n", 2),  # whitespace only
            ("a,b\r\n\r\na,b\r\n", 2),  # CRLF endings
            ("a,b\r\ra,b\r", 2),  # lone-CR endings
        ],
    )
    def test_empty_token(self, tmp_path, fmt, body, lineno):
        path = tmp_path / "s.txt"
        path.write_bytes(body.encode())
        assert read_error(path, fmt) == f"{path}: line {lineno}: empty token"

    def test_three_fields_that_repeat_later(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("1.1.1.1,2.2.2.2\n  a , b ,c \n1.1.1.1,2.2.2.2\n  a , b ,c \n")
        assert read_error(path, "ipcsv") == (
            f"{path}: line 2: expected 'src,dst', got 'a , b ,c'"
        )

    @pytest.mark.parametrize("fmt", ["text", "ipcsv"])
    def test_non_utf8_after_a_valid_copy_of_its_prefix(self, tmp_path, fmt):
        path = tmp_path / "s.csv"
        path.write_bytes(b"a,b\na,b\na,b\xff\na,b\n")
        assert read_error(path, fmt) == f"{path}: line 3: not valid UTF-8"

    def test_last_line_without_newline(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("a,b\nc,d\na,b,c")
        assert read_error(path, "ipcsv") == f"{path}: line 3: expected 'src,dst', got 'a,b,c'"

    @pytest.mark.parametrize("fmt", ["text", "ipcsv"])
    def test_failing_line_in_a_later_block(self, tmp_path, small_block, fmt):
        # The failing line first shows up in the third block, and again in the fourth.
        path = tmp_path / "s.csv"
        path.write_text("a,b\nc,d\n" * 5 + "\n" + "a,b\n" * 3 + "\n")
        assert read_error(path, fmt) == f"{path}: line 11: empty token"

    @pytest.mark.parametrize("block", [3, None])
    @pytest.mark.parametrize("other", [b"\n", b"a,b,c\n"], ids=["empty", "three-field"])
    @pytest.mark.parametrize("not_utf8_first", [True, False])
    def test_first_of_two_kinds_of_bad_line(
        self, tmp_path, monkeypatch, block, other, not_utf8_first
    ):
        # Both bad lines share one block, so a read that checked the block's
        # new lines and only then encoded them would name the wrong one.
        if block is not None:
            monkeypatch.setattr(harness, "READ_BLOCK", block, raising=False)
        bad = [b"a\xff,b\n", other] if not_utf8_first else [other, b"a\xff,b\n"]
        path = tmp_path / "s.csv"
        path.write_bytes(b"".join([b"1.1.1.1,2.2.2.2\n", *bad, b"1.1.1.1,2.2.2.2\n"]))
        with pytest.raises(StreamFormatError) as expected:
            reference_read(path, "ipcsv")
        assert str(expected.value).startswith(f"{path}: line 2: ")
        assert ("not valid UTF-8" in str(expected.value)) == not_utf8_first
        assert read_error(path, "ipcsv") == str(expected.value)

    @pytest.mark.parametrize("line", ["1.2.3.4,", ",", " , 5.6.7.8", "1.2.3.4,\t "])
    def test_empty_field(self, tmp_path, line):
        path = tmp_path / "s.csv"
        path.write_text(f"1.2.3.4,5.6.7.8\n{line}\n")
        token = line.strip()
        assert read_error(path, "ipcsv") == f"{path}: line 2: empty field in {token!r}"


class TestLineRule:
    def test_spaces_around_fields(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(" 1.2.3.4 ,\t5.6.7.8 \n1.2.3.4,5.6.7.8\n")
        assert read_stream(str(path), "ipcsv").tolist() == [token_id("1.2.3.4,5.6.7.8")] * 2

    @pytest.mark.parametrize("fmt", ["text", "ipcsv"])
    def test_line_endings_and_no_final_newline(self, tmp_path, fmt):
        path = tmp_path / "s.csv"
        path.write_bytes(b"a,b\r\nc,d\re,f\na,b")
        expected = [token_id(t) for t in ("a,b", "c,d", "e,f", "a,b")]
        assert read_stream(str(path), fmt).tolist() == expected

    def test_only_newline_splits_a_line(self, tmp_path):
        # str.splitlines would also break on these.
        path = tmp_path / "s.txt"
        path.write_text("a\x0bb\na\x1cb\na b\n", encoding="utf-8")
        expected = [token_id(t) for t in ("a\x0bb", "a\x1cb", "a b")]
        assert read_stream(str(path), "text").tolist() == expected


def random_lines(rng, fmt, n, vocab):
    """n lines, endings included, over ``vocab`` tokens with mixed endings.

    ipcsv lines get random spaces around their fields.
    """
    tokens = rng.integers(0, vocab, size=n)
    endings = rng.choice(["\n", "\r\n", "\r"], size=n)
    pad = rng.choice(["", " ", "\t"], size=(n, 4)) if fmt == "ipcsv" else None
    out = []
    for i, (tok, end) in enumerate(zip(tokens.tolist(), endings.tolist())):
        if fmt == "ipcsv":
            p = pad[i]
            line = f"{p[0]}10.0.{tok % 256}.1{p[1]},{p[2]}10.1.{tok // 256}.2{p[3]}"
        else:
            line = f"w{tok}é"
        out.append(line + end)
    return out


class TestDifferential:
    @pytest.mark.parametrize("fmt", ["text", "ipcsv"])
    @pytest.mark.parametrize("block", [3, None])
    @pytest.mark.parametrize("vocab", [5, 300, 10**9])
    def test_matches_reference(self, tmp_path, monkeypatch, fmt, block, vocab):
        if block is not None:
            monkeypatch.setattr(harness, "READ_BLOCK", block, raising=False)
        rng = np.random.default_rng([vocab, len(fmt)])
        path = tmp_path / "s.txt"
        for n in (1, 2, 50, 2000):
            path.write_bytes("".join(random_lines(rng, fmt, n, vocab)).encode())
            got = read_stream(str(path), fmt)
            assert got.dtype == np.uint64
            assert got.tolist() == reference_read(path, fmt).tolist()

    @pytest.mark.parametrize("fmt", ["text", "ipcsv"])
    @pytest.mark.parametrize("block", [3, None])
    def test_same_error_as_reference(self, tmp_path, monkeypatch, fmt, block):
        if block is not None:
            monkeypatch.setattr(harness, "READ_BLOCK", block, raising=False)
        rng = np.random.default_rng(7)
        bad = ["\n", " \r\n", "a,b,c\n", ",x\r", "x,\n", "\udcff,x\n"]
        path = tmp_path / "s.txt"
        for trial in range(40):
            lines = random_lines(rng, fmt, 60, 8)
            bad_line = bad[trial % len(bad)]
            lines.insert(int(rng.integers(0, len(lines))), bad_line)
            lines.append(bad_line)
            path.write_bytes("".join(lines).encode(errors="surrogateescape"))
            try:
                expected = reference_read(path, fmt).tolist()
            except StreamFormatError as exc:
                assert read_error(path, fmt) == str(exc)
            else:
                assert read_stream(str(path), fmt).tolist() == expected

    @pytest.mark.parametrize("fmt", ["text", "ipcsv"])
    def test_empty_file(self, tmp_path, fmt):
        path = tmp_path / "empty"
        path.write_bytes(b"")
        got = read_stream(str(path), fmt)
        assert got.dtype == np.uint64 and got.size == 0


@pytest.fixture
def digest_calls(monkeypatch):
    """The tokens passed to ``harness.token_digest``, one per call."""
    calls = []
    real = harness.token_digest

    def spy(token):
        calls.append(token)
        return real(token)

    monkeypatch.setattr(harness, "token_digest", spy)
    return calls


def address_lines(distinct):
    """One ipcsv line per value of ``distinct``, which also reads as text."""
    return [f"10.0.0.{i},10.1.0.1\n" for i in distinct]


class TestMemo:
    """With 4-line blocks the memo is cleared once it holds over 16 lines."""

    @pytest.mark.parametrize("fmt", ["text", "ipcsv"])
    def test_each_distinct_line_is_hashed_once(self, tmp_path, small_block, digest_calls, fmt):
        # 6 distinct lines over 15 blocks: a memo per block would hash 60.
        path = tmp_path / "s.csv"
        path.write_text("".join(address_lines(i % 6 for i in range(60))))
        assert read_stream(str(path), fmt).tolist() == reference_read(path, fmt).tolist()
        assert len(digest_calls) == 6

    def test_no_state_is_kept_between_reads(self, tmp_path, small_block, digest_calls):
        path = tmp_path / "s.csv"
        path.write_text("".join(address_lines(i % 6 for i in range(60))))
        first = read_stream(str(path), "ipcsv")
        calls = len(digest_calls)
        assert read_stream(str(path), "ipcsv").tolist() == first.tolist()
        assert len(digest_calls) == 2 * calls

    @pytest.mark.parametrize("fmt", ["text", "ipcsv"])
    def test_lines_that_repeat_after_a_clear(self, tmp_path, small_block, digest_calls, fmt):
        # 40 distinct lines, three times over: each repeat follows a clear.
        path = tmp_path / "s.csv"
        path.write_text("".join(address_lines(list(range(40)) * 3)))
        assert read_stream(str(path), fmt).tolist() == reference_read(path, fmt).tolist()
        assert len(digest_calls) == 120

    @pytest.mark.parametrize("fmt", ["text", "ipcsv"])
    def test_malformed_line_first_seen_after_a_clear(self, tmp_path, small_block, fmt):
        # 20 distinct lines fill five blocks, so the memo is cleared before
        # line 21, a repeat, and line 22 fails.
        path = tmp_path / "s.csv"
        path.write_text("".join(address_lines([*range(20), 3])) + "\n" + "10.0.0.3,10.1.0.1\n")
        assert read_error(path, fmt) == f"{path}: line 22: empty token"


def test_result_is_an_owned_writable_array(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("a\nb\na\n")
    got = read_stream(str(path), "text")
    assert got.dtype == np.uint64 and got.flags.owndata and got.flags.writeable
    got[0] = 1


def test_memory_is_bounded_by_the_block(tmp_path):
    path = tmp_path / "three.txt"
    path.write_text("alpha\nbeta\ngamma\n" * 100_000)
    peak, got = traced_peak(read_stream, str(path), "text")
    assert got.size == 300_000
    # The result grows in place, so the read never holds a second copy of it.
    assert peak < 1.6 * got.nbytes, f"peak {peak} bytes for {got.nbytes} bytes of ids"


@pytest.mark.parametrize(
    "fmt, body, tokens",
    [
        ("text", "a\nrose\r\nis\na\n", ["a", "rose", "is", "a"]),
        ("ipcsv", "1.2.3.4,5.6.7.8\n 9.9.9.9 , 5.6.7.8\n", ["1.2.3.4,5.6.7.8", "9.9.9.9,5.6.7.8"]),
    ],
)
def test_lines_from_pipe(tmp_path, fmt, body, tokens):
    path = tmp_path / "lines.fifo"
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_bytes, args=(body.encode(),), daemon=True)
    writer.start()
    try:
        assert read_stream(str(path), fmt).tolist() == [token_id(t) for t in tokens]
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
