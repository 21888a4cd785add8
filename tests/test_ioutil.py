import numpy as np
import pytest

from mkdmts.errors import DataError
from mkdmts.ioutil import (
    make_dir, malformed, median_of_sorted, read_json, read_matrix, read_text, remove_file, write_json, write_matrix,
    write_text,
)


def test_median_of_sorted_is_np_median_bit_for_bit():
    # sizes 1-9; half the vectors draw from a few values, so ties, signed zeros and equal middles all occur
    gen = np.random.default_rng(34)
    few = np.array([-2.5, -1.0, -0.0, 0.0, 0.5, 1.0, 3.25])
    for size in range(1, 10):
        for trial in range(60):
            x = gen.choice(few, size) if trial % 2 else gen.normal(size=size) * 10.0 ** gen.integers(-3, 4)
            expected = float(np.median(x))
            for values in (np.sort(x), sorted(x.tolist())):
                got = median_of_sorted(values)
                assert type(got) is float and np.float64(got).tobytes() == np.float64(expected).tobytes()


def test_read_json_of_a_path_with_a_nul_byte_is_data_error(tmp_path):
    with pytest.raises(DataError, match="embedded null byte") as info:
        read_json(tmp_path / "a\u0000.json")
    assert str(info.value).isprintable() and "\\x00" in str(info.value)


@pytest.mark.parametrize("operation,expected", [
    (lambda p: read_text(p), "cannot read"),
    (lambda p: read_matrix(p), "cannot read matrix"),
    (lambda p: write_text(p, "x"), "cannot write"),
    (lambda p: write_json(p, {}), "cannot write"),
    (lambda p: write_matrix(p, np.zeros((1, 1))), "cannot write"),
    (lambda p: make_dir(p), "cannot create directory"),
    (lambda p: remove_file(p), "cannot remove"),
], ids=["read_text", "read_matrix", "write_text", "write_json", "write_matrix", "make_dir", "remove_file"])
def test_every_file_operation_on_a_nul_path_is_one_printable_data_error(tmp_path, operation, expected):
    with pytest.raises(DataError) as info:
        operation(tmp_path / "a\u0000b")
    message = str(info.value)
    assert f": {expected} (embedded null byte)" in message and message.isprintable()


@pytest.mark.parametrize("case,expected", [
    ("missing", "gone: file not found"),
    ("directory", "dir: cannot read (Is a directory)"),
    ("not_utf8", "latin1: not UTF-8 text (invalid start byte at byte 1)"),
])
def test_read_text_failures_keep_their_wording(tmp_path, case, expected):
    (tmp_path / "dir").mkdir()
    (tmp_path / "latin1").write_bytes(b"a\xff")
    path = tmp_path / {"missing": "gone", "directory": "dir", "not_utf8": "latin1"}[case]
    with pytest.raises(DataError) as info:
        read_text(path)
    assert str(info.value) == f"{tmp_path}/{expected}"


def test_os_failures_keep_their_wording(tmp_path):
    (tmp_path / "plain").write_text("")
    (tmp_path / "dir").mkdir()
    for operation, path, expected in [(make_dir, "plain/sub", "cannot create directory (Not a directory)"),
                                      (remove_file, "dir", "cannot remove (Is a directory)"),
                                      (lambda p: write_text(p, ""), "dir", "cannot write (Is a directory)"),
                                      (read_matrix, "gone", "cannot read matrix (No such file or directory)")]:
        with pytest.raises(DataError) as info:
            operation(tmp_path / path)
        assert str(info.value) == f"{tmp_path / path}: {expected}"


@pytest.mark.parametrize("error", [AttributeError, KeyError, IndexError, TypeError, ValueError])
def test_malformed_turns_the_document_errors_into_one_data_error(error):
    with pytest.raises(DataError) as info, malformed("doc.json: malformed metadata"):
        raise error("bad")
    assert str(info.value) == f"doc.json: malformed metadata ({error('bad')!r})"


def test_malformed_lets_other_errors_through():
    with pytest.raises(DataError, match="^already one line$"), malformed("doc.json: malformed metadata"):
        raise DataError("already one line")
