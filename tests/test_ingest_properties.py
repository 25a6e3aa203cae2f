"""Property tests for text ingest, one set per file format (dataset,
centers, codes, checkpoint, the distances file of ``solve-weights``
and the weights CSV of ``weight-report``): a valid
file with one corrupted line fails with a ParseError naming that
physical 1-based line, and save -> load -> save is byte-identical.
The dataset loader, which streams its file in blocks, is also run with
blocks of a few samples: it must give the columns and the errors of
one whole-file read.

Every test is pinned (derandomized, fixed example count, no deadline)
so that the suite is deterministic and its run time does not depend on
the host."""

import contextlib
import io
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import icshash.data
from icshash import (
    Dataset,
    HashCenterSet,
    ParseError,
    init_params,
    load_centers,
    load_checkpoint,
    load_codes,
    load_dataset,
    pack_database,
    save_centers,
    save_checkpoint,
    save_codes,
    save_dataset,
)
from icshash.cli import _build_parser, _read_weights_csv, main

PINNED = settings(derandomize=True, deadline=None, max_examples=40)

SEEDS = st.integers(0, 2**32 - 1)
COUNTS = st.integers(1, 5)
WIDTHS = st.integers(1, 140)

# Tokens that neither int() nor float() reads; "1_0" is read by both,
# but by no loader, so it is added to the corruptions of every line.
NOT_A_NUMBER = ["x", "#", "0x1", "1.5e"]

# Integers that int() reads but no writer writes: a leading zero, a
# sign, a negative zero, a digit separator and a full-width digit.
NOT_AS_WRITTEN = ["07", "+7", "-0", "1_0", "\uff12"]

# Corruptions that each kind of line must report.
CORRUPTIONS = {
    "header": ["drop", "add", "token", "blank"],
    "sizes": ["token", "blank"],  # a changed size count moves the blame to a layer line
    "values": ["drop", "add", "token", "blank"],
    "bits": ["drop", "add", "token", "blank"],
}


def pm1(rng, shape):
    return np.where(rng.random(shape) < 0.5, -1, 1).astype(np.int8)


def make_dataset(rng, path, n, width):
    m = int(rng.integers(1, 9))
    features, labels = np.empty((n, width)), np.zeros((n, m), dtype=np.int8)
    proportions, given = np.zeros((n, m)), np.zeros(n, dtype=bool)
    for i in range(n):
        labels[i, rng.choice(m, size=rng.integers(1, m + 1), replace=False)] = 1
        given[i] = rng.random() < 0.7
        if given[i]:
            proportions[i, labels[i] != 0] = rng.dirichlet(np.ones(labels[i].sum()))
        features[i] = rng.normal(size=width)
    save_dataset(path, Dataset(features, labels, proportions, given))
    return ["header"] + ["values", "bits", "values"] * n, lambda: load_dataset(path)


def make_centers(rng, path, n, width):
    save_centers(path, HashCenterSet(pm1(rng, (n, width)), "bernoulli", n))
    return ["header"] + ["values"] * n, lambda: load_centers(path)


def make_codes(rng, path, n, width):
    save_codes(path, pack_database(pm1(rng, (n, width))))
    return ["header"] + ["bits"] * n, lambda: load_codes(path)


def make_checkpoint(rng, path, n, width):
    sizes = [width] + [int(v) for v in rng.integers(1, 6, size=n)]
    save_checkpoint(path, init_params(sizes, rng), sizes[-1], 3, n)
    kinds = ["header", "sizes", "header", "header", "header"]
    for n_in in sizes[:-1]:
        kinds += ["header"] + ["values"] * n_in + ["header", "values"]
    return kinds, lambda: load_checkpoint(path)


MAKERS = {
    "dataset": make_dataset,
    "centers": make_centers,
    "codes": make_codes,
    "checkpoint": make_checkpoint,
}

SAVERS = {
    "dataset": save_dataset,
    "centers": save_centers,
    "codes": save_codes,
    "checkpoint": lambda path, loaded: save_checkpoint(
        path, loaded[0], *(loaded[1][key] for key in ("k_bits", "m_labels", "seed"))
    ),
}


def corrupt(line, line_kind, how, draw):
    if how == "blank":
        return ""
    if line_kind == "bits":
        tokens, sep = list(line), ""
        bad = ["2", "x", "-", "é"]
    else:
        sep = "," if line_kind == "csv" else " "
        tokens = line.split(sep)
        bad = NOT_A_NUMBER + ["1_0"]
    i = draw(st.integers(0, len(tokens) - 1))
    if how == "drop":
        del tokens[i]
    elif how == "add":
        tokens.insert(i, "1")
    else:
        tokens[i] = draw(st.sampled_from(bad))
    return sep.join(tokens)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("ingest")


@pytest.mark.parametrize("fmt", sorted(MAKERS))
@PINNED
@given(seed=SEEDS, n=COUNTS, width=WIDTHS, data=st.data())
def test_corrupted_line_is_named(workdir, fmt, seed, n, width, data):
    path = workdir / fmt
    kinds, load = MAKERS[fmt](np.random.default_rng(seed), path, n, width)
    lines = path.read_text().splitlines()
    assert len(lines) == len(kinds)
    j = data.draw(st.integers(0, len(lines) - 1), label="line index")
    how = data.draw(st.sampled_from(CORRUPTIONS[kinds[j]]), label="corruption")
    lines[j] = corrupt(lines[j], kinds[j], how, data.draw)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as exc_info:
        load()
    assert exc_info.value.line == j + 1


@pytest.mark.parametrize("fmt", sorted(MAKERS))
@PINNED
@given(seed=SEEDS, n=COUNTS, width=WIDTHS)
@example(seed=0, n=1, width=65)
@example(seed=1, n=1, width=130)
def test_save_load_save_is_byte_identical(workdir, fmt, seed, n, width):
    path = workdir / fmt
    _, load = MAKERS[fmt](np.random.default_rng(seed), path, n, width)
    first = path.read_bytes()
    SAVERS[fmt](path, load())
    assert path.read_bytes() == first


@PINNED
@given(seed=SEEDS, n=COUNTS, width=WIDTHS)
def test_dataset_values_equal_per_line_float_reference(workdir, seed, n, width):
    # feature values in several spellings, from subnormal to huge; the
    # block parse must give the values Python's float() gives line by line
    rng = np.random.default_rng(seed)
    spellings = ["%r", "%.3e", "%.17g", "%g", "%.1f", "%E"]
    values = rng.normal(size=(n, width)) * 10.0 ** rng.integers(-310, 300, size=(n, width))
    lines = [
        " ".join(spellings[rng.integers(len(spellings))] % float(v) for v in row)
        for row in values
    ]
    path = workdir / "spellings.txt"
    path.write_text(f"{n} {width} 1\n" + "".join(f"{line}\n1\n-\n" for line in lines))
    loaded = load_dataset(path)
    for features, line in zip(loaded.features, lines):
        assert features.tolist() == [float(p) for p in line.split()]


# Tokens that parse as numbers but are not a finite, nonnegative distance.
BAD_DISTANCES = ["-1", "-0.5", "nan", "inf", "-inf"]


@PINNED
@given(seed=SEEDS, n=COUNTS, width=st.integers(1, 12), data=st.data())
def test_corrupted_distances_line_is_named(workdir, seed, n, width, data):
    rng = np.random.default_rng(seed)
    lines = [
        " ".join(repr(float(v)) for v in rng.exponential(5.0, size=rng.integers(1, width + 1)))
        for _ in range(n)
    ]
    for _ in range(data.draw(st.integers(0, 3), label="blank lines")):
        lines.insert(data.draw(st.integers(0, len(lines))), "")
    path, out = workdir / "distances.txt", workdir / "weights.csv"
    argv = ["solve-weights", "--distances", str(path), "--out", str(out)]
    path.write_text("\n".join(lines) + "\n")
    assert main(argv) == 0
    j = data.draw(st.sampled_from([i for i, ln in enumerate(lines) if ln]), label="line")
    tokens = lines[j].split()
    bad = data.draw(st.sampled_from(NOT_A_NUMBER + ["1_0"] + BAD_DISTANCES), label="token")
    tokens[data.draw(st.integers(0, len(tokens) - 1), label="position")] = bad
    lines[j] = " ".join(tokens)
    path.write_text("\n".join(lines) + "\n")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(argv) == 3
    assert err.getvalue().startswith(f"error: line {j + 1}: ")


def write_weights_csv(path, weights, mask):
    """The weights CSV as ``train`` writes it: a header, then one row per
    (sample, label) pair of the mask in row-major order."""
    rows, labels = np.nonzero(mask)
    lines = ["sample,label,weight"] + [
        f"{r},{c},{weights[r, c]:.17g}" for r, c in zip(rows.tolist(), labels.tolist())
    ]
    path.write_text("\n".join(lines) + "\n")
    return lines


# Corruptions of one row of a weights CSV; "repeat" copies an earlier row.
WEIGHT_ROW_CORRUPTIONS = [
    "drop", "add", "token", "sample", "label", "fraction", "weight", "repeat",
]  # fmt: skip


@PINNED
@given(seed=SEEDS, n=COUNTS, m=st.integers(1, 8), data=st.data())
def test_weights_csv_round_trip_and_corrupted_row(workdir, seed, n, m, data):
    rng = np.random.default_rng(seed)
    mask = rng.random((n, m)) < 0.5
    mask[np.arange(n), rng.integers(m, size=n)] = True
    weights = np.where(mask, rng.random((n, m)), 0.0)
    path = workdir / "weights_in.csv"
    lines = write_weights_csv(path, weights, mask)
    np.testing.assert_array_equal(_read_weights_csv(path, mask), weights)

    j = data.draw(st.integers(1, len(lines) - 1), label="row")
    kinds = WEIGHT_ROW_CORRUPTIONS if j > 1 else WEIGHT_ROW_CORRUPTIONS[:-1]
    how = data.draw(st.sampled_from(kinds), label="corruption")
    fields = lines[j].split(",")
    if how == "repeat":
        fields = lines[data.draw(st.integers(1, j - 1), label="earlier row")].split(",")
    elif how in ("drop", "add", "token"):
        fields = corrupt(lines[j], "csv", how, data.draw).split(",")
    elif how == "sample":
        fields[0] = data.draw(st.sampled_from([str(n), "-1", str(n + 10**6)]))
    elif how == "label":
        fields[1] = data.draw(st.sampled_from([str(m), "-1", "inf"]))
    elif how == "fraction":
        fields[data.draw(st.integers(0, 1))] = "0.5"
    else:
        fields[2] = data.draw(st.sampled_from(["nan", "inf", "-inf"]))
    lines[j] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as exc_info:
        _read_weights_csv(path, mask)
    assert exc_info.value.line == j + 1


# Samples per block of load_dataset in the streaming tests below, so that
# files of 7 to 12 samples span three or more blocks.
SMALL_BLOCK = 3


@contextlib.contextmanager
def small_load_blocks():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(icshash.data, "_ROW_BLOCK", SMALL_BLOCK)
        yield


def whole_file_columns(path):
    """The four columns of a dataset file read whole, as the loader did
    before it streamed: the text split into lines at once, then float()
    per value and int() per label character."""
    lines = path.read_text().splitlines()
    n, d, m = map(int, lines[0].split())
    features = np.array([[float(v) for v in lines[1 + 3 * i].split()] for i in range(n)])
    labels = np.array([[int(c) for c in lines[2 + 3 * i].strip()] for i in range(n)], np.int8)
    proportions, given = np.zeros((n, m)), np.zeros(n, dtype=bool)
    for i in range(n):
        text = lines[3 + 3 * i].strip()
        if text != "-":
            given[i] = True
            proportions[i, labels[i] != 0] = [float(v) for v in text.split()]
    return features.reshape(n, d), labels.reshape(n, m), proportions, given


def assert_columns_equal(data, columns):
    for got, want in zip((data.features, data.labels, data.proportions, data.has_proportions), columns):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


@PINNED
@given(seed=SEEDS, n=st.integers(1, 12), width=st.integers(1, 30), blank=st.integers(0, 3))
def test_streamed_columns_equal_the_whole_file_reader(workdir, seed, n, width, blank):
    path = workdir / "streamed"
    make_dataset(np.random.default_rng(seed), path, n, width)
    path.write_text(path.read_text() + "\n" * blank)  # trailing blank lines are allowed
    with small_load_blocks():
        assert_columns_equal(load_dataset(path), whole_file_columns(path))
    assert_columns_equal(load_dataset(path), whole_file_columns(path))


@PINNED
@given(seed=SEEDS, n=st.integers(7, 12), width=st.integers(1, 30), data=st.data())
def test_corrupted_line_in_a_later_block_is_named(workdir, seed, n, width, data):
    path = workdir / "later"
    kinds, load = make_dataset(np.random.default_rng(seed), path, n, width)
    lines = path.read_text().splitlines()
    j = data.draw(st.integers(1 + 3 * SMALL_BLOCK, len(lines) - 1), label="line index")
    hows = CORRUPTIONS[kinds[j]] + (["non-finite"] if kinds[j] == "values" else [])
    how = data.draw(st.sampled_from(hows), label="corruption")
    if how == "non-finite":
        tokens = lines[j].split()
        i = data.draw(st.integers(0, len(tokens) - 1), label="position")
        tokens[i] = data.draw(st.sampled_from(["nan", "inf", "-inf"]), label="value")
        lines[j] = " ".join(tokens)
    else:
        lines[j] = corrupt(lines[j], kinds[j], how, data.draw)
    path.write_text("\n".join(lines) + "\n")
    with small_load_blocks(), pytest.raises(ParseError) as streamed:
        load()
    with pytest.raises(ParseError) as one_block:
        load()
    assert streamed.value.line == j + 1
    assert str(streamed.value) == str(one_block.value)


@PINNED
@given(seed=SEEDS, n=st.integers(7, 12), width=st.integers(1, 30), data=st.data())
def test_truncated_file_and_rows_past_n_are_named(workdir, seed, n, width, data):
    path = workdir / "short"
    make_dataset(np.random.default_rng(seed), path, n, width)
    lines = path.read_text().splitlines()
    kept = data.draw(st.integers(1, len(lines) - 1), label="lines kept")
    path.write_text("\n".join(lines[:kept]) + "\n")
    with small_load_blocks(), pytest.raises(ParseError) as exc_info:
        load_dataset(path)
    assert exc_info.value.line == kept + 1
    assert f"expected {3 * n + 1} lines, found {kept}" in str(exc_info.value)

    blank = data.draw(st.integers(0, 3), label="blank lines")
    path.write_text("\n".join(lines + [""] * blank + ["0.5"]) + "\n")
    with small_load_blocks(), pytest.raises(ParseError) as exc_info:
        load_dataset(path)
    assert exc_info.value.line == len(lines) + blank + 1
    assert "more rows than header field N declares" in str(exc_info.value)


def test_header_count_past_what_the_file_holds_is_a_short_file(workdir):
    # the columns are sized by what the file can hold, not by N alone
    path = workdir / "huge_n"
    make_dataset(np.random.default_rng(0), path, 2, 3)
    lines = path.read_text().splitlines()
    path.write_text("\n".join([f"{10**12} {lines[0].split()[1]} {lines[0].split()[2]}", *lines[1:]]))
    with pytest.raises(ParseError) as exc_info:
        load_dataset(path)
    assert exc_info.value.line == 8
    assert f"expected {3 * 10**12 + 1} lines, found 7" in str(exc_info.value)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_dataset_read_from_a_pipe(workdir):
    # a pipe has no size to bound the columns by, so the header's N is used
    path = workdir / "piped"
    make_dataset(np.random.default_rng(2), path, 7, 5)
    read_end, write_end = os.pipe()
    with os.fdopen(write_end, "wb") as fh:
        fh.write(path.read_bytes())  # a few KiB: fits the pipe buffer
    try:
        with small_load_blocks():
            assert_columns_equal(load_dataset(f"/dev/fd/{read_end}"), whole_file_columns(path))
    finally:
        os.close(read_end)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_piped_header_count_past_what_the_pipe_holds_is_a_short_file():
    # the columns of a pipe grow with the samples read, so an N of 10**13
    # is named at the first missing line rather than allocated
    read_end, write_end = os.pipe()
    with os.fdopen(write_end, "w") as fh:
        fh.write(f"{10**13} 1 1\n0.5\n1\n-\n")
    try:
        with pytest.raises(ParseError) as exc_info:
            load_dataset(f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)
    assert exc_info.value.line == 5
    assert f"expected {3 * 10**13 + 1} lines, found 4" in str(exc_info.value)


# A header width no row can hold: 10**12 float64 values take 7.28 TiB.
HUGE = 10**12


@contextlib.contextmanager
def dataset_source(kind, workdir, text):
    """The path of a regular file or of a pipe that holds ``text``."""
    if kind == "file":
        path = workdir / "source"
        path.write_text(text)
        yield path
        return
    read_end, write_end = os.pipe()
    with os.fdopen(write_end, "w") as fh:
        fh.write(text)  # a few bytes: fits the pipe buffer
    try:
        yield f"/dev/fd/{read_end}"
    finally:
        os.close(read_end)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("kind", ["file", "pipe"])
@pytest.mark.parametrize("width", [HUGE, 2**60, 2**62])  # 2**60 float64 values overflow a size
@pytest.mark.parametrize(
    "header, line_no, message",
    [
        ("1 {} 1", 2, "expected {} values, found 1"),
        ("1 1 {}", 3, "expected a 0/1 string of {} characters"),
    ],
    ids=["D", "M"],
)
def test_dataset_header_width_past_what_the_lines_hold_is_named(
    workdir, kind, width, header, line_no, message
):
    # the columns are allocated only once a block has parsed, so a header
    # D or M is named at its first line rather than allocated, even where
    # no zero-row array of its width could be built
    with dataset_source(kind, workdir, f"{header.format(width)}\n0.5\n1\n-\n") as path:
        with pytest.raises(ParseError) as exc_info:
            load_dataset(path)
    assert (exc_info.value.line, exc_info.value.exit_code) == (line_no, 3)
    assert message.format(width) in str(exc_info.value)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_a_regular_file_is_allocated_once_and_a_pipe_grows(workdir, monkeypatch):
    # a regular file's size bounds the samples it can hold, so its columns
    # are sized once; a pipe's size reads 0, so its columns start empty
    path = workdir / "allocated"
    make_dataset(np.random.default_rng(4), path, 10, 5)
    calls, resize = [], np.resize
    monkeypatch.setattr(np, "resize", lambda *args: calls.append(args) or resize(*args))
    with small_load_blocks():
        assert_columns_equal(load_dataset(path), whole_file_columns(path))
        assert calls == []
        with dataset_source("pipe", workdir, path.read_text()) as piped:
            assert_columns_equal(load_dataset(piped), whole_file_columns(path))
    assert len(calls) == 4 * 3  # four columns, grown to 3, 6 and 10 rows


@pytest.mark.parametrize(
    "fmt, field, line_no",
    [
        ("dataset", 1, 2),  # D, held by each features line
        ("dataset", 2, 3),  # M, held by each label string
        ("centers", 0, 2),  # K, held by each center row
        ("codes", 1, 2),  # K, held by each code
    ],
)
def test_header_width_past_what_the_rows_hold_is_named(workdir, fmt, field, line_no):
    # in every headed format a width is checked against the first row
    # that must hold it before anything of that width is allocated
    path = workdir / f"wide_{fmt}"
    _, load = MAKERS[fmt](np.random.default_rng(0), path, 2, 3)
    lines = path.read_text().splitlines()
    fields = lines[0].split()
    fields[field] = str(HUGE)
    lines[0] = " ".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as exc_info:
        load()
    assert exc_info.value.line == line_no
    assert str(HUGE) in str(exc_info.value)


def test_checkpoint_layer_size_past_what_the_rows_hold_is_named(workdir):
    # the tag lines agree with the sizes line, so the first weight row of
    # the widened layer is the first line that cannot hold its width
    path = workdir / "wide.ckpt"
    save_checkpoint(path, init_params([3, 4, 2], np.random.default_rng(0)), 2, 3, 0)
    text = path.read_text()
    for old in ("sizes 3 4 2", "weight 0 3 4", "bias 0 4", "weight 1 4 2"):
        assert old in text
        text = text.replace(old, old.replace("4", str(HUGE)))
    path.write_text(text)
    with pytest.raises(ParseError) as exc_info:
        load_checkpoint(path)
    assert exc_info.value.line == 7
    assert f"expected {HUGE} values, found 4" in str(exc_info.value)


def test_only_newlines_end_a_dataset_line(workdir):
    # str.splitlines() also breaks at \v \f \x1c-\x1e \x85 \u2028 \u2029;
    # the loader reads lines from the file, which ends them at \n, \r\n or
    # \r alone: those characters are whitespace inside a value line, and a
    # fault is named at the line that the newlines count
    path = workdir / "breaks"
    make_dataset(np.random.default_rng(1), path, 8, 4)
    text = path.read_text()
    expected = load_dataset(path)
    lines = text.splitlines()
    for j, char in ((1, "\x0c"), (10, "\x85"), (13, "\u2028")):
        lines[j] = lines[j].replace(" ", char, 1)
    path.write_text("\n".join(lines) + "\n")
    with small_load_blocks():
        assert_columns_equal(load_dataset(path), [expected.features, expected.labels,
                                                  expected.proportions, expected.has_proportions])
    lines[17] = "1\x1d" + lines[17]  # inside sample 5's label string
    path.write_text("\n".join(lines) + "\n")
    with small_load_blocks(), pytest.raises(ParseError) as exc_info:
        load_dataset(path)
    assert exc_info.value.line == 18



# Readers that once read a file whole split its text with str.splitlines,
# which also breaks at these characters. Every reader takes its lines from
# the open file, which ends one only at \n, \r\n or \r.
SPLITLINES_ONLY = ["\x0c", "\x85", "\u2028"]


def distances_case(rng, path):
    lines = [" ".join(map(repr, rng.exponential(5.0, size=3).tolist())) for _ in range(4)]
    out = path.with_name("solved.csv")
    args = _build_parser().parse_args(["solve-weights", "--distances", str(path), "--out", str(out)])

    def solve():  # through the command's handler, which raises what main reports
        args.func(args)
        return out.read_text()

    return lines, " ", solve


def weights_csv_case(rng, path):
    lines = ["sample,label,weight"] + [f"{i},{j},{rng.random()!r}" for i in range(2) for j in range(2)]
    return lines, ",", lambda: _read_weights_csv(path, np.ones((2, 2), dtype=bool))


def checkpoint_case(rng, path):
    save_checkpoint(path, init_params([3, 2], rng), 2, 3, 0)
    load = lambda: load_checkpoint(path)  # noqa: E731
    return path.read_text().splitlines(), " ", lambda: [*load()[0].weights, *load()[0].biases]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("j, kind", [(6, "weight"), (8, "weight"), (10, "bias")])
def test_non_finite_checkpoint_value_names_its_line(workdir, value, j, kind):
    # as load_dataset refuses a non-finite feature; such a checkpoint used
    # to load, and eval scored the codes it gave. A second such value, on
    # the bias row, is not the one named
    path = workdir / f"non_finite_{j}"
    lines, sep, load = checkpoint_case(np.random.default_rng(5), path)
    for i in {j, 10}:
        fields = lines[i].split(sep)
        fields[-1] = value
        lines[i] = sep.join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=f"non-finite {kind} value") as exc_info:
        load()
    assert exc_info.value.line == j + 1


# Each reader's valid file, the index of a value line and of a later line.
LINE_RULE_CASES = {
    "distances": (distances_case, 0, 3),
    "weights_csv": (weights_csv_case, 1, 4),
    "checkpoint": (checkpoint_case, 6, 10),  # a weight row, the bias row
}


@pytest.mark.parametrize("char", SPLITLINES_ONLY, ids=repr)
@pytest.mark.parametrize("reader", sorted(LINE_RULE_CASES))
def test_only_newlines_end_a_line_in_every_reader(workdir, reader, char):
    # the character is whitespace inside a value line: it splits nothing,
    # and a later fault is named at the line that the newlines count
    make, j, later = LINE_RULE_CASES[reader]
    path = workdir / f"rule_{reader}"
    lines, sep, load = make(np.random.default_rng(5), path)
    path.write_text("\n".join(lines) + "\n")
    expected = load()
    lines[j] = lines[j].replace(sep, char + sep, 1)
    path.write_text("\n".join(lines) + "\n")
    np.testing.assert_equal(load(), expected)
    lines[later] = lines[later].rsplit(sep, 1)[0] + sep + "x"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as exc_info:
        load()
    assert exc_info.value.line == later + 1


def test_truncated_checkpoint_names_its_first_missing_line(workdir):
    path = workdir / "cut.ckpt"
    save_checkpoint(path, init_params([3, 2, 2], np.random.default_rng(0)), 2, 3, 0)
    lines = path.read_text().splitlines()
    for kept in range(len(lines)):
        path.write_text("".join(line + "\n" for line in lines[:kept]))
        with pytest.raises(ParseError) as exc_info:
            load_checkpoint(path)
        assert exc_info.value.line == kept + 1


@pytest.mark.parametrize("fmt", ["centers", "codes"])
@pytest.mark.parametrize("n, width", [(1, 1), (3, 5), (6, 70)])
def test_cut_table_names_its_first_missing_line(workdir, fmt, n, width):
    # as the checkpoint and the dataset do: the counts in the message are
    # lines from the start of the file
    path = workdir / f"cut_{fmt}"
    _, load = MAKERS[fmt](np.random.default_rng(n), path, n, width)
    lines = path.read_text().splitlines()
    for kept in range(len(lines)):
        path.write_text("".join(line + "\n" for line in lines[:kept]))
        with pytest.raises(ParseError) as exc_info:
            load()
        assert exc_info.value.line == kept + 1
        if kept:  # an empty file fails at its header
            assert f"expected {len(lines)} lines, found {kept}" in str(exc_info.value)


@pytest.mark.parametrize(
    "line_no, text",
    [
        (2, "sizes 0 2"),
        (3, "k_bits 0"),
        (4, "m_labels 0"),
        (4, "m_labels -3"),
        (5, "seed -1"),
        (2, "sizes 03 +2"),
        (3, "k_bits 02"),
        (5, "seed -0"),
    ],
)
def test_checkpoint_header_out_of_range_is_named(workdir, line_no, text):
    # every header field has the bounds of the other formats' headers:
    # sizes and k_bits >= 1, m_labels >= 1, seed >= 0; and their rule: the
    # last three spell the values save_checkpoint wrote, 3 2, 2 and 0,
    # in a way it never writes them
    path = workdir / "bounds.ckpt"
    save_checkpoint(path, init_params([3, 2], np.random.default_rng(0)), 2, 3, 0)
    lines = path.read_text().splitlines()
    assert lines[line_no - 1].split()[0] == text.split()[0]
    lines[line_no - 1] = text
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as exc_info:
        load_checkpoint(path)
    assert exc_info.value.line == line_no


@pytest.mark.parametrize(
    "fmt, line_no, field, name",
    [
        ("dataset", 1, 0, "N"),
        ("dataset", 1, 1, "D"),
        ("dataset", 1, 2, "M"),
        ("centers", 1, 0, "K"),
        ("centers", 1, 1, "M"),
        ("centers", 1, 3, "seed"),
        ("codes", 1, 0, "N"),
        ("codes", 1, 1, "K"),
        ("checkpoint", 2, 1, "sizes"),
        ("checkpoint", 2, 3, "sizes"),
        ("checkpoint", 3, 1, "K_BITS"),
        ("checkpoint", 4, 1, "M_LABELS"),
        ("checkpoint", 5, 1, "SEED"),
    ],
)
@pytest.mark.parametrize("text", NOT_AS_WRITTEN)
def test_header_integer_not_written_as_plain_decimal_is_named(
    workdir, fmt, line_no, field, name, text
):
    # each header integer is read as the writers write it, whatever int()
    # or numpy would also read
    path = workdir / f"plain_{fmt}"
    _, load = MAKERS[fmt](np.random.default_rng(0), path, 2, 3)
    lines = path.read_text().splitlines()
    fields = lines[line_no - 1].split()
    fields[field] = text
    lines[line_no - 1] = " ".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as exc_info:
        load()
    assert exc_info.value.line == line_no
    assert f"header field {name} " in str(exc_info.value)
