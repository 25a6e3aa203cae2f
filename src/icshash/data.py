"""Dataset container, text I/O, and a synthetic multi-label generator.

Synthetic samples are noisy convex mixtures of per-label anchor
directions: each sample picks c labels, draws mixture proportions from
a Dirichlet, and keeps those proportions as ground truth. This gives a
desk-scale dataset on which "does the learned weight of a center track
how much of that label is in the sample" is a measurable question.
"""

import itertools
import math
import os
import re
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import DataError, EvaluationError, InternalInvariantError, ParseError, check_int

# Rows per block of every row-streamed pass, each holding O(_ROW_BLOCK) rows of
# temporaries: load_dataset, encode_binary, pack_database, save_codes, CSV writes.
_ROW_BLOCK = 1024
# Samples per block of save_dataset's check and of its text: it holds no
# (N, M) temporary and no more than one block of lines.
_SAVE_BLOCK = 16
# A standard normal draw of numpy's ziggurat is below 13.8 in magnitude
# (its tail draw is r - log(u) / r with r = 3.654 and u >= 2**-53), so a
# noise scale up to this bound keeps every feature, noise plus a mixture
# of unit anchors, below 1.4e308 and finite.
_MAX_NOISE_SIGMA = 1e307


@dataclass
class MultiLabelSample:
    """features: (D,) floats; labels: (M,) 0/1 with at least one positive;
    proportions: optional, one finite value per positive label in ascending
    label order (zero off the mask in a Dataset), not required to sum to 1."""

    features: np.ndarray
    labels: np.ndarray
    proportions: np.ndarray | None = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int8)
        if self.proportions is not None:
            self.proportions = np.asarray(self.proportions, dtype=np.float64)

    def n_labels(self) -> int:
        return int(np.sum(self.labels))


@dataclass
class Dataset:
    """N samples as columns: features (N, D) float64; labels (N, M) int8,
    0/1 with a positive in every row; proportions (N, M) float64, zero
    off the label mask and in rows without proportions; has_proportions
    (N,) bool. An integer index (and so iteration) gives a
    MultiLabelSample, a slice or an index array a Dataset.

    The columns are checked when the Dataset is built: ValueError when
    their shapes disagree on N or M or D is 0, and DataError for the first sample,
    in index order, with a label other than 0 or 1 or, failing that,
    without a positive label or with a non-finite feature. The labels are
    checked as given, before their cast to int8, so that 2, 0.5 or 257 is
    refused rather than cast. They are kept as read-only views, so that a write
    through the Dataset cannot undo a check before train reads them. The
    views share the caller's arrays, which are not copied and stay
    writable under the caller's names: a caller must not write to them
    after building the Dataset. Only train looks again, once a batch stops
    being finite: a non-finite feature there raises the DataError above."""

    features: np.ndarray
    labels: np.ndarray
    proportions: np.ndarray
    has_proportions: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        given = np.asarray(self.labels)
        with np.errstate(invalid="ignore"):  # NaN or inf: refused below
            self.labels = given.astype(np.int8, copy=False)
        self.proportions = np.asarray(self.proportions, dtype=np.float64)
        self.has_proportions = np.asarray(self.has_proportions, dtype=bool)
        f, l, p, g = shapes = [column.shape for column in vars(self).values()]
        if not (len(f) == len(l) == 2 and p == l and f[:1] == l[:1] == g and f[1] >= 1):
            raise ValueError(
                "Dataset columns must be features (N, D) with D >= 1, labels and "
                f"proportions (N, M) and has_proportions (N,); got shapes {shapes}"
            )
        # read as uint8, a negative label is 128 or more
        largest = self.labels.view(np.uint8).max(axis=1, initial=0)
        not_binary = largest > 1
        if self.labels is not given:  # a cast that changed a value hid it
            not_binary |= (self.labels != given).any(axis=1)
        no_positive = largest == 0
        failed = not_binary | no_positive | ~np.isfinite(self.features).all(axis=1)
        if failed.any():
            i = int(np.argmax(failed))
            if not_binary[i]:
                problem = "a label other than 0 or 1"
            else:
                problem = "no positive label" if no_positive[i] else "a non-finite feature"
            raise DataError(f"sample {i} has {problem}")
        for name, column in list(vars(self).items()):
            view = column.view()
            view.flags.writeable = False
            setattr(self, name, view)

    def __len__(self) -> int:
        return len(self.features)

    def __getitem__(self, i):
        if not isinstance(i, (int, np.integer)):
            return Dataset(*(column[i] for column in vars(self).values()))
        given = self.has_proportions[i]
        proportions = self.proportions[i, self.labels[i] != 0] if given else None
        return MultiLabelSample(self.features[i], self.labels[i], proportions)


@dataclass
class SyntheticSpec:
    """n_samples/d_features/m_labels: dataset shape; labels_per_sample:
    inclusive (lo, hi) range of positive labels per sample;
    dirichlet_alpha: proportion concentration (1 = uniform over the
    simplex); noise_sigma: feature noise scale. Counts, both bounds and
    seed are integers, dirichlet_alpha finite and > 0, noise_sigma
    in [0, _MAX_NOISE_SIGMA]; ValueError names a field out of range."""

    n_samples: int
    d_features: int
    m_labels: int
    labels_per_sample: tuple[int, int] = (1, 3)
    dirichlet_alpha: float = 1.0
    noise_sigma: float = 0.1
    seed: int = 0

    def __post_init__(self):
        for name, minimum in (("n_samples", 1), ("d_features", 1), ("m_labels", 1), ("seed", 0)):
            check_int(name, getattr(self, name), minimum)
        lo = check_int("labels_per_sample[0]", self.labels_per_sample[0], 1)
        hi = check_int("labels_per_sample[1]", self.labels_per_sample[1], lo)
        if hi > self.m_labels:
            raise ValueError(
                f"labels_per_sample {self.labels_per_sample} out of range "
                f"for M={self.m_labels}"
            )
        if not 0 < self.dirichlet_alpha < math.inf:  # nan fails
            raise ValueError("dirichlet_alpha must be positive and finite")
        if not 0 <= self.noise_sigma <= _MAX_NOISE_SIGMA:  # nan fails
            raise ValueError(
                f"noise_sigma must be nonnegative and at most {_MAX_NOISE_SIGMA:g}, "
                "so that no feature overflows"
            )


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Deterministic given the spec (seed included).

    Anchors are unit-norm Gaussian directions, one per label; features
    are the proportion-weighted anchor mixture plus Gaussian noise.

    Each sample draws its label count, labels, proportions and noise in
    turn, so the draws stay in one per-sample order. Its mixture is the
    product ``mix @ anchors[chosen]`` of that sample alone: a batched
    product sums the same terms in another order and differs in the last
    bits (``proportions @ anchors`` in 13 259 of 20 000 noiseless samples
    at D = 32, M = 80). Its labels and shares then go onto its row of the
    label and proportion columns.
    """
    rng = np.random.default_rng(spec.seed)
    anchors = rng.normal(size=(spec.m_labels, spec.d_features))
    anchors /= np.linalg.norm(anchors, axis=1, keepdims=True)
    lo, hi = spec.labels_per_sample
    n, m, sigma = spec.n_samples, spec.m_labels, spec.noise_sigma
    features = np.empty((n, spec.d_features))
    labels = np.zeros((n, m), dtype=np.int8)
    proportions = np.zeros((n, m))
    alphas = [np.full(c, spec.dirichlet_alpha) for c in range(hi + 1)]
    one = np.ones(1)  # a one-label sample's share
    for i in range(n):
        c = int(rng.integers(lo, hi + 1))
        chosen = np.sort(rng.choice(m, size=c, replace=False))
        mix = rng.dirichlet(alphas[c]) if c > 1 else one
        np.matmul(mix, anchors[chosen], out=features[i])
        if sigma > 0:
            features[i] += sigma * rng.normal(size=spec.d_features)
        labels[i][chosen] = 1
        proportions[i][chosen] = mix
    return Dataset(features, labels, proportions, np.ones(n, dtype=bool))


def features_matrix(data: Dataset) -> np.ndarray:
    """The (N, D) feature column of a Dataset."""
    return data.features


def labels_matrix(data: Dataset) -> np.ndarray:
    """The (N, M) label column of a Dataset."""
    return data.labels


def save_dataset(path, data: Dataset) -> None:
    """Three lines per sample after a ``N D M`` header: features (9
    significant digits), the 0/1 label string, and the proportions (full
    precision) or ``-`` when absent. A sample whose proportions would not
    load back is refused before the file is opened. Both passes go
    _SAVE_BLOCK samples at a time: the check holds a few (block, M)
    masks, the writer one block's text, whose label strings are the
    block's int8 labels as bytes; its shares, one boolean gather, format by row."""
    if not data:
        raise ValueError("refusing to save an empty dataset")
    (n, d), m = data.features.shape, data.labels.shape[1]
    blocks = range(0, n, _SAVE_BLOCK)
    for start in blocks:
        block = slice(start, start + _SAVE_BLOCK)
        given, p = data.has_proportions[block], data.proportions[block]
        on_mask = (data.labels[block] != 0) & given[:, None]
        bad = np.where(on_mask, ~np.isfinite(p), p != 0)
        if bad.any():
            i, j = np.argwhere(bad)[0].tolist()
            off = "a nonzero value off its label mask or with has_proportions false"
            problem = "a non-finite value on its label mask" if on_mask[i, j] else off
            raise ValueError(f"sample {start + i}: proportions hold {problem}")
    sample_format = " ".join(["%.9g"] * d) + "\n%s\n%s\n"
    with open(path, "w") as fh:
        fh.write(f"{n} {d} {m}\n")
        for start in blocks:
            block = slice(start, start + _SAVE_BLOCK)
            labels = data.labels[block]
            on_mask = (labels != 0) & data.has_proportions[block][:, None]
            shares = data.proportions[block][on_mask].tolist()
            label_lines = _bit_text(labels.view(np.uint8)).decode().split("\n")
            rows = zip(data.features[block].tolist(), label_lines)
            end = 0
            for (features, label_line), count in zip(rows, on_mask.sum(axis=1).tolist()):
                row_shares = " ".join(["%.17g"] * count) % tuple(shares[end : end + count])
                end += count
                # a row without proportions has no shares and writes "-"
                fh.write(sample_format % (*features, label_line, row_shares or "-"))


def _read_header(fh, header, minimums, line=1) -> list:
    """The fields of the next line of ``fh``, line ``line`` of its file,
    named by ``header``; those in ``minimums`` are read by _header_int."""
    fields = fh.readline().split()
    names = header.split()
    if len(fields) != len(names):
        raise ParseError(f"expected header '{header}'", line=line)
    return [
        _header_int(field, name, minimums[name], line) if name in minimums else field
        for field, name in zip(fields, names)
    ]


def _header_int(text, name, minimum, line) -> int:
    """Header field ``name``, written ``text`` on line ``line``, read as
    the writers write an integer: plain ASCII decimal, with no sign, no
    leading zero and no ``_``, and at least ``minimum``."""
    if not re.fullmatch("0|[1-9][0-9]*", text) or int(text) < minimum:
        raise ParseError(f"header field {name} must be a decimal integer >= {minimum}", line=line)
    return int(text)


def _take_lines(fh, count, taken, total) -> list[str]:
    """The next ``count`` lines of ``fh``, newlines kept, after the
    ``taken`` lines read from the start of its file, which a reader
    expects to hold ``total``; when the file ends first, ParseError at
    its first missing line."""
    lines = list(itertools.islice(fh, count))
    if len(lines) < count:
        found = taken + len(lines)
        raise ParseError(f"expected {total} lines, found {found}", line=found + 1)
    return lines


def _check_rest_blank(fh, message, line) -> None:
    """Only blank lines may follow the rows; ``line`` is the number of
    the next line of ``fh``, and ``message`` names the first other one."""
    for number, text in enumerate(fh, line):
        if text.strip():
            raise ParseError(message, line=number)


def _read_table(path, header, minimums, count_field):
    """The fields of line 1 of a text file (see _read_header) and the
    lines that follow, one per row; the header field ``count_field``
    holds the row count. Only blank lines may follow the rows."""
    with open(path) as fh:
        fields = _read_header(fh, header, minimums)
        count = fields[header.split().index(count_field)]
        body = _take_lines(fh, count, 1, 1 + count)
        _check_rest_blank(fh, f"more rows than header field {count_field} declares", 2 + count)
    return fields, body


def _read_nonblank(path) -> tuple[list[str], list[int]]:
    """The non-blank lines of a text file, newlines kept, and their
    1-based line numbers."""
    with open(path) as fh:
        numbered = [(number, text) for number, text in enumerate(fh, 1) if text.strip()]
    return [text for _, text in numbered], [number for number, _ in numbered]


def _first_bad_line(parse, lines, line_numbers, *args):
    """Parse a block that failed again one line at a time, so that the
    first bad line raises its ParseError."""
    for line, number in zip(lines, line_numbers):
        parse([line], [number], *args)
    raise InternalInvariantError("a block failed to parse but none of its lines did")


def _parse_rows(lines, line_numbers, width, dtype, delimiter=None) -> np.ndarray:
    """(len(lines), width) values of ``dtype`` from one numpy conversion
    of a block of lines. When the block does not parse, ParseError names
    the physical 1-based line, taken from ``line_numbers``."""
    if not lines:
        return np.empty((0, width), dtype=dtype)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a block of blank lines warns
            values = np.loadtxt(
                lines, dtype=dtype, delimiter=delimiter, comments=None, ndmin=2
            )
        if values.shape == (len(lines), width):  # loadtxt skips blank lines
            return values
    except ValueError:
        pass
    if len(lines) > 1:
        _first_bad_line(_parse_rows, lines, line_numbers, width, dtype, delimiter)
    found = len(lines[0].split(delimiter))
    problem = f"found {found}" if found != width else f"not all read as {np.dtype(dtype).name}"
    raise ParseError(f"expected {width} values, {problem}", line=int(line_numbers[0]))


def _parse_bits(lines, line_numbers, width) -> np.ndarray:
    """(len(lines), width) int8 0/1 matrix from one np.frombuffer over a
    block of 0/1 strings (surrounding whitespace ignored), with the same
    error reporting as _parse_rows."""
    text = np.frombuffer("\n".join([*map(str.strip, lines), ""]).encode(), np.uint8)
    if text.size == len(lines) * (width + 1):
        # n newlines, none among the bits: each ends its own row
        bits = text.reshape(len(lines), width + 1)[:, :width] - np.uint8(ord("0"))
        if not np.any(bits > 1):
            return bits.view(np.int8)
    if len(lines) > 1:
        _first_bad_line(_parse_bits, lines, line_numbers, width)
    raise ParseError(f"expected a 0/1 string of {width} characters", line=int(line_numbers[0]))


def _bit_text(bits) -> bytes:
    """The rows of an (N, K) uint8 0/1 matrix as N newline-ended lines of
    K ``0``/``1`` characters: the text _parse_bits reads."""
    text = np.full((len(bits), bits.shape[1] + 1), ord("\n"), dtype=np.uint8)
    np.add(bits, ord("0"), out=text[:, :-1])
    return text.tobytes()


def _ragged_groups(lines, line_numbers, widths):
    """Float rows of differing widths, one _parse_rows block per width in
    ascending order: for each width, the indices of its rows and their
    (rows, width) values."""
    widths, numbers = np.asarray(widths, dtype=np.int64), np.asarray(line_numbers)
    # not np.unique: its first call imports numpy.ma, 11-27 ms
    for width in np.flatnonzero(np.bincount(widths)).tolist():
        at = np.flatnonzero(widths == width)
        yield at, _parse_rows([lines[i] for i in at.tolist()], numbers[at], width, np.float64)


def _parse_block(lines, start, d, m) -> tuple:
    """Parse and check the samples in ``lines``, three lines each, the
    first of them sample ``start``, with D features and M labels. Returns
    their (rows, D) features, (rows, M) int8 labels, (rows,) bool
    has-proportions flags, and their proportion rows grouped by width as
    ``(rows of the block, values)`` pairs. Each check covers the whole
    block before the next runs: feature rows, label strings, a positive
    label in every row, proportion rows, then finite values in file
    order. Nothing is allocated before a line has parsed to its width."""
    first = 3 * np.arange(start, start + len(lines) // 3) + 2  # features line
    features = _parse_rows(lines[0::3], first, d, np.float64)
    labels = _parse_bits(lines[1::3], first + 1, m)
    counts = labels.sum(axis=1)
    if np.any(counts == 0):
        i = int(np.argmin(counts))
        raise DataError(f"sample {start + i} (line {first[i] + 1}) has no positive label")
    given = np.array([text.strip() != "-" for text in lines[2::3]], dtype=bool)
    at = np.flatnonzero(given)
    given_lines = list(itertools.compress(lines[2::3], given))
    groups = [(at[g], v) for g, v in _ragged_groups(given_lines, first[at] + 2, counts[at])]
    non_finite = np.zeros((len(features), 2), dtype=bool)
    non_finite[:, 0] = ~np.isfinite(features).all(axis=1)
    for rows, values in groups:
        non_finite[rows, 1] = ~np.isfinite(values).all(axis=1)
    if non_finite.any():
        i, kind = np.argwhere(non_finite)[0]  # the first in file order
        what = ("feature", "proportion")[kind]
        raise ParseError(f"non-finite {what} value", line=int(first[i] + 2 * kind))
    return features, labels, given, groups


def _dataset_blocks(path, layout):
    """Read the dataset text format in blocks of _ROW_BLOCK samples,
    each parsed and checked whole by _parse_block; the first block with
    a fault raises it, and only blank lines may follow the last. For each
    block, yields the columns that ``layout(d, m)`` lays out, one
    ``(row shape, dtype)`` each, the slice of the block's samples in them,
    and the block's parsed arrays, which the caller writes into the
    columns it keeps."""
    with open(path) as fh:
        n, d, m = _read_header(fh, "N D M", {"N": 1, "D": 1, "M": 1})
        # A sample that parses takes 2D + M + 3 bytes or more (one less at
        # the end of the file), so the columns start with the samples the
        # input's size can hold, none for a pipe (size 0). They are
        # allocated once the first block has parsed, so that no header
        # alone sizes them, and grow (doubling up to N; np.resize keeps
        # the rows read) only with samples that have parsed.
        rows = min(n, (os.fstat(fh.fileno()).st_size + 1) // (2 * d + m + 2))
        columns = []
        for start in range(0, n, _ROW_BLOCK):
            lines = _take_lines(fh, 3 * min(_ROW_BLOCK, n - start), 1 + 3 * start, 1 + 3 * n)
            parsed = _parse_block(lines, start, d, m)
            block = slice(start, start + len(lines) // 3)
            if not columns:
                columns = [np.empty((rows, *shape), dtype) for shape, dtype in layout(d, m)]
            if block.stop > len(columns[0]):
                grown = min(n, max(2 * len(columns[0]), block.stop))
                columns = [np.resize(column, (grown, *column.shape[1:])) for column in columns]
            yield columns, block, parsed
        _check_rest_blank(fh, "more rows than header field N declares", 2 + 3 * n)


def load_dataset(path) -> Dataset:
    """Read the dataset text format into its four columns in blocks of
    _ROW_BLOCK samples (see _dataset_blocks). A row's proportions go onto
    its label mask, one per positive label in ascending order."""

    def layout(d, m):
        return [((d,), np.float64), ((m,), np.int8), ((m,), np.float64), ((), bool)]

    for columns, block, (features, labels, given, groups) in _dataset_blocks(path, layout):
        columns[0][block], columns[1][block], columns[3][block] = features, labels, given
        proportions = columns[2][block]
        proportions[:] = 0.0
        for rows, values in groups:
            # ascending labels per row; 10x faster than a 2-D np.nonzero
            r, c = np.divmod(np.flatnonzero(labels.view(bool)[rows]), labels.shape[1])
            proportions[rows[r], c] = values.ravel()
    return Dataset(*columns)


def load_dataset_csv(path, m_labels: int) -> Dataset:
    """Headerless CSV fallback: each row is D feature values followed
    by M 0/1 label values; no proportions. Blank lines are skipped.

    The format does not carry D, so the column count is the most common
    one, ties going to the earliest row: in a file of 3 or more rows, a
    single row of the wrong width is named on its own line, the first
    row included."""
    lines, numbers = _read_nonblank(path)
    if not lines:
        raise ParseError("empty CSV file", line=1)
    commas = [line.count(",") for line in lines]
    width = Counter(commas).most_common(1)[0][0] + 1  # ties: first seen
    if width <= m_labels:
        raise ParseError(
            f"row has {width} columns, need more than M={m_labels}",
            line=numbers[commas.index(width - 1)],
        )
    values = _parse_rows(lines, numbers, width, np.float64, delimiter=",")
    features = values[:, : width - m_labels]
    labels = values[:, width - m_labels :]
    non_finite = ~np.isfinite(features).all(axis=1)
    bad = non_finite | ~np.isin(labels, (0.0, 1.0)).all(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        message = "non-finite feature value" if non_finite[i] else "label columns must be 0 or 1"
        raise ParseError(message, line=numbers[i])
    labels = labels.astype(np.int8)
    empty = labels.sum(axis=1) == 0
    if empty.any():
        i = int(np.argmax(empty))
        raise DataError(f"sample {i} (line {numbers[i]}) has no positive label")
    return Dataset(features, labels, np.zeros(labels.shape), np.zeros(len(labels), dtype=bool))


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of a 1-D array; each run of tied values gets the
    mean of the positions it spans, an exact half-integer. NaN anywhere
    makes every rank NaN."""
    if np.isnan(x).any():
        return np.full(x.size, np.nan)
    order = np.argsort(x, kind="stable")
    sorted_x = x[order]
    starts = np.flatnonzero(np.r_[True, sorted_x[1:] != sorted_x[:-1]])
    ends = np.r_[starts[1:], x.size]
    ranks = np.empty(x.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def spearman_corr(a, b) -> float:
    """Rank correlation with average ranks on ties, in [-1, 1]."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("inputs must be equal-length 1-D sequences")
    if a.size < 2:
        raise EvaluationError("need at least 2 points for a rank correlation")
    if np.all(a == a[0]) or np.all(b == b[0]):
        raise EvaluationError("rank correlation undefined for constant input")
    ra = _average_ranks(a)
    rb = _average_ranks(b)
    ra -= ra.mean()
    rb -= rb.mean()
    return float(np.dot(ra, rb) / np.sqrt(np.dot(ra, ra) * np.dot(rb, rb)))
