"""Dataset container, text I/O, and a synthetic multi-label generator.

Synthetic samples are noisy convex mixtures of per-label anchor
directions: each sample picks c labels, draws mixture proportions from
a Dirichlet, and keeps those proportions as ground truth. This gives a
desk-scale dataset on which "does the learned weight of a center track
how much of that label is in the sample" is a measurable question.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError, EvaluationError, ParseError


@dataclass
class MultiLabelSample:
    """features: (D,) floats; labels: (M,) 0/1 with at least one
    positive; proportions: optional simplex vector aligned with the
    positive labels in ascending label order."""

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
class SyntheticSpec:
    """n_samples/d_features/m_labels: dataset shape; labels_per_sample:
    inclusive (lo, hi) range of positive labels per sample;
    dirichlet_alpha: proportion concentration (1 = uniform over the
    simplex); noise_sigma: feature noise scale."""

    n_samples: int
    d_features: int
    m_labels: int
    labels_per_sample: tuple[int, int] = (1, 3)
    dirichlet_alpha: float = 1.0
    noise_sigma: float = 0.1
    seed: int = 0

    def __post_init__(self):
        lo, hi = self.labels_per_sample
        if min(self.n_samples, self.d_features, self.m_labels) < 1:
            raise ValueError("all counts must be positive")
        if not 1 <= lo <= hi <= self.m_labels:
            raise ValueError(
                f"labels_per_sample {self.labels_per_sample} out of range "
                f"for M={self.m_labels}"
            )
        if self.dirichlet_alpha <= 0:
            raise ValueError("dirichlet_alpha must be positive")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be nonnegative")


def generate_synthetic(spec: SyntheticSpec) -> list[MultiLabelSample]:
    """Deterministic given the spec (seed included).

    Anchors are unit-norm Gaussian directions, one per label; features
    are the proportion-weighted anchor mixture plus Gaussian noise.
    """
    rng = np.random.default_rng(spec.seed)
    anchors = rng.normal(size=(spec.m_labels, spec.d_features))
    anchors /= np.linalg.norm(anchors, axis=1, keepdims=True)
    lo, hi = spec.labels_per_sample
    samples = []
    for _ in range(spec.n_samples):
        c = int(rng.integers(lo, hi + 1))
        chosen = np.sort(rng.choice(spec.m_labels, size=c, replace=False))
        if c == 1:
            proportions = np.ones(1)
        else:
            proportions = rng.dirichlet(np.full(c, spec.dirichlet_alpha))
        features = proportions @ anchors[chosen]
        if spec.noise_sigma > 0:
            features = features + spec.noise_sigma * rng.normal(
                size=spec.d_features
            )
        labels = np.zeros(spec.m_labels, dtype=np.int8)
        labels[chosen] = 1
        samples.append(MultiLabelSample(features, labels, proportions))
    return samples


def features_matrix(samples) -> np.ndarray:
    return np.asarray([s.features for s in samples], dtype=np.float64)


def labels_matrix(samples) -> np.ndarray:
    return np.asarray([s.labels for s in samples], dtype=np.int8)


def save_dataset(path, samples: list[MultiLabelSample]) -> None:
    """Three lines per sample after a ``N D M`` header: features (9
    significant digits), the 0/1 label string, and the proportions
    (full precision) or ``-`` when absent."""
    if not samples:
        raise ValueError("refusing to save an empty dataset")
    n = len(samples)
    d = samples[0].features.size
    m = samples[0].labels.size
    lines = [f"{n} {d} {m}"]
    for s in samples:
        lines.append(" ".join(f"{v:.9g}" for v in s.features))
        lines.append("".join(str(int(v)) for v in s.labels))
        if s.proportions is None:
            lines.append("-")
        else:
            lines.append(" ".join(f"{v:.17g}" for v in s.proportions))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_floats(text: str, expected: int, line_no: int) -> np.ndarray:
    parts = text.split()
    if len(parts) != expected:
        raise ParseError(f"expected {expected} values, found {len(parts)}", line=line_no)
    try:
        return np.array([float(p) for p in parts], dtype=np.float64)
    except ValueError:
        raise ParseError("non-numeric value", line=line_no) from None


def load_dataset(path) -> list[MultiLabelSample]:
    with open(path) as fh:
        raw = fh.read().splitlines()
    if not raw or not raw[0].strip():
        raise ParseError("empty dataset file", line=1)
    head = raw[0].split()
    if len(head) != 3:
        raise ParseError("expected header 'N D M'", line=1)
    try:
        n, d, m = (int(v) for v in head)
    except ValueError:
        raise ParseError("non-integer header field", line=1) from None
    if len(raw) < 1 + 3 * n:
        raise ParseError(
            f"expected {3 * n} sample lines, found {len(raw) - 1}", line=len(raw)
        )
    samples = []
    for i in range(n):
        base = 1 + 3 * i
        features = _parse_floats(raw[base], d, base + 1)
        label_text = raw[base + 1].strip()
        if len(label_text) != m or set(label_text) - {"0", "1"}:
            raise ParseError(
                f"expected an {m}-character 0/1 string", line=base + 2
            )
        labels = np.array([int(ch) for ch in label_text], dtype=np.int8)
        if labels.sum() == 0:
            raise DataError(f"sample {i} (line {base + 2}) has no positive label")
        prop_text = raw[base + 2].strip()
        if prop_text == "-":
            proportions = None
        else:
            proportions = _parse_floats(raw[base + 2], int(labels.sum()), base + 3)
        samples.append(MultiLabelSample(features, labels, proportions))
    # checked once for all samples: a per-line check added ~20% to the
    # load time; sample i's features are on line 3i + 2
    bad = np.flatnonzero(~np.isfinite(features_matrix(samples)))
    if bad.size:
        raise ParseError("non-finite feature value", line=3 * int(bad[0] // d) + 2)
    return samples


def load_dataset_csv(path, m_labels: int) -> list[MultiLabelSample]:
    """Headerless CSV fallback: each row is D feature values followed
    by M 0/1 label values; no proportions."""
    with open(path) as fh:
        raw = [ln for ln in fh.read().splitlines() if ln.strip()]
    if not raw:
        raise ParseError("empty CSV file", line=1)
    samples = []
    width = None
    for i, line in enumerate(raw):
        parts = [p.strip() for p in line.split(",")]
        if width is None:
            width = len(parts)
            if width <= m_labels:
                raise ParseError(
                    f"row has {width} columns, need more than M={m_labels}",
                    line=i + 1,
                )
        elif len(parts) != width:
            raise ParseError(
                f"expected {width} columns, found {len(parts)}", line=i + 1
            )
        try:
            values = np.array([float(p) for p in parts], dtype=np.float64)
        except ValueError:
            raise ParseError("non-numeric value", line=i + 1) from None
        features = values[: width - m_labels]
        labels = values[width - m_labels :]
        if not np.all(np.isfinite(features)):
            raise ParseError("non-finite feature value", line=i + 1)
        if not np.all(np.isin(labels, (0.0, 1.0))):
            raise ParseError("label columns must be 0 or 1", line=i + 1)
        labels = labels.astype(np.int8)
        if labels.sum() == 0:
            raise DataError(f"sample {i} (line {i + 1}) has no positive label")
        samples.append(MultiLabelSample(features, labels, None))
    return samples


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
