"""Core data model, dataset ingestion, and synthetic dataset generation.

Sequences live in CSV files (one row per time step, one column per
dimension) referenced by a JSON-lines manifest with one record per
sequence: {"id": ..., "path": ..., "label": optional}.  The synthetic
generator builds seen classes from per-dimension smooth templates and
unseen classes as dimension-level recombinations of seen classes.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError
from .ioutil import check_int, check_number, make_dir, read_only, read_text, remove_file, show_path, write_json, write_text

_INT64 = np.iinfo(np.int64)


@dataclass(frozen=True)
class TimeSeries:
    """One multivariate sequence; rows are dimensions, columns time steps.

    ``values`` is the sequence's own finite, read-only copy of the given matrix.
    """

    id: str
    values: np.ndarray
    label: int | None = None

    def __post_init__(self):
        v = np.array(self.values, dtype=np.float64, order="C")
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise DataError(
                f"sequence {self.id!r}: expected a (dims x steps) matrix, got shape {v.shape}"
            )
        if not np.isfinite(v).all():
            bad = np.argwhere(~np.isfinite(v))[0]
            raise DataError(
                f"sequence {self.id!r}: non-finite value at dimension {bad[0]}, step {bad[1]}"
            )
        object.__setattr__(self, "values", read_only(v))

    @property
    def dims(self) -> int:
        return self.values.shape[0]

    @property
    def length(self) -> int:
        return self.values.shape[1]

    def dim(self, l: int) -> np.ndarray:
        return self.values[l]


def check_ids(ids, where: str = "") -> None:
    """Reject ids that cannot name per-sequence files: empty, "." or "..", with a path separator or a NUL byte,
    or repeated.

    The DataError's message starts with ``where``.
    """
    seen = set()
    for sid in ids:
        if sid in ("", ".", "..") or "/" in sid or "\\" in sid or "\0" in sid:
            raise DataError(f"{where}sequence id {sid!r} is not a safe file name")
        if sid in seen:
            raise DataError(f"{where}duplicate sequence id {sid!r}")
        seen.add(sid)


@dataclass(frozen=True)
class Dataset:
    """An ordered, immutable tuple of sequences sharing a dimension count.

    Ids pass ``check_ids``.  Labels are optional here; whatever needs them
    reads them through ``labels``, which rejects an unlabeled sequence.
    ``_wavefront`` is ``kernels``' one-entry slot for the DTW wavefront that
    describes against this set keep beside its packed block; nothing else
    reads it.
    """

    sequences: tuple[TimeSeries, ...]
    label_names: dict[int, str] | None = None
    _hash: str | None = field(default=None, init=False, repr=False, compare=False)
    _packed: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _wavefront: deque = field(default_factory=lambda: deque(maxlen=1), init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "sequences", tuple(self.sequences))
        if not self.sequences:
            raise DataError("empty dataset")
        check_ids(self.ids())
        dims = self.sequences[0].dims
        for seq in self.sequences:
            if seq.dims != dims:
                raise DataError(
                    f"sequence {seq.id!r} has {seq.dims} dimensions, expected {dims}"
                )

    def __len__(self) -> int:
        return len(self.sequences)

    @property
    def dims(self) -> int:
        return self.sequences[0].dims

    def labels(self) -> np.ndarray:
        """Every sequence's label; an unlabeled sequence is a DataError.  ``class_rows`` partitions them."""
        for s in self.sequences:
            if s.label is None:
                raise DataError(f"sequence {s.id!r} has no label")
        return np.array([s.label for s in self.sequences], dtype=np.int64)

    def ids(self) -> list[str]:
        return [s.id for s in self.sequences]

    def subset(self, indices) -> "Dataset":
        seqs = [self.sequences[i] for i in indices]
        return Dataset(seqs, label_names=self.label_names)

    def hash(self) -> str:
        """sha256 hex digest of the sequences, computed on the first call only.

        Each sequence's bytes follow the JSON line ``[id, label, rows, cols]``,
        so no id running into a label, or shape read as another, hashes equal.
        """
        if self._hash is None:
            h = hashlib.sha256()
            for s in self.sequences:
                label = None if s.label is None else int(s.label)
                h.update(json.dumps([s.id, label, *s.values.shape]).encode() + b"\n")
                h.update(s.values.tobytes())
            object.__setattr__(self, "_hash", h.hexdigest())
        return self._hash

    def packed(self) -> tuple[np.ndarray, np.ndarray]:
        """``pack`` of every dimension of every sequence, dimension l of sequence i in column
        ``l * len(self) + i``, built on the first call only and read-only."""
        if self._packed is None:
            block, lengths = pack([s.dim(l) for l in range(self.dims) for s in self.sequences])
            object.__setattr__(self, "_packed", (read_only(block), read_only(lengths)))
        return self._packed


def class_rows(labels) -> tuple[list, list[np.ndarray]]:
    """The sorted distinct labels (Python values, as ``tolist`` gives them) and, for each, the ascending
    rows that hold it, in one pass: what ``np.unique(labels)`` and ``np.flatnonzero(labels == c)`` give,
    without ``np.unique``, which imports ``numpy.ma`` on its first call."""
    members: dict = {}
    for i, label in enumerate(np.asarray(labels).tolist()):
        members.setdefault(label, []).append(i)
    classes = sorted(members)
    return classes, [np.array(members[c], dtype=np.intp) for c in classes]


def pack(series) -> tuple[np.ndarray, np.ndarray]:
    """Zero-padded ``steps x len(series)`` block with 1-d series k in column k, and the lengths;
    ``steps`` is the longest length.  It is the one packer of DTW input: a dataset's block
    (``Dataset.packed``) and ``kernels.dtw``'s pair; a cross kernel's query, whose dimensions share one
    length, is already such a block transposed."""
    lengths = np.array([s.size for s in series], dtype=np.intp)
    block = np.zeros((int(lengths.max(initial=0)), len(series)))
    for k, s in enumerate(series):
        block[: s.size, k] = s
    return block, lengths


def _load_csv(path: Path) -> np.ndarray:
    """Parse one sequence file: rows are time steps, columns dimensions."""
    text = read_text(path)
    rows = []
    width = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        cells = line.split(",")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise DataError(f"{show_path(path)}: row {lineno} has {len(cells)} columns, expected {width}")
        row = []
        for col, cell in enumerate(cells, start=1):
            try:
                val = float(cell)
            except ValueError:
                raise DataError(f"{show_path(path)}: row {lineno}, column {col}: not a number: {cell!r}") from None
            if not math.isfinite(val):
                raise DataError(f"{show_path(path)}: row {lineno}, column {col}: non-finite value {cell!r}")
            row.append(val)
        rows.append(row)
    if not rows:
        raise DataError(f"{show_path(path)}: empty sequence file")
    return np.asarray(rows, dtype=np.float64).T


def load_dataset(manifest_path: str | Path) -> Dataset:
    """Load a dataset from a JSON-lines manifest.

    String labels are interned to dense integer ids in first-seen order;
    the mapping is kept on the returned Dataset (``label_names``).  A
    manifest whose labels mix strings and integers is a DataError, since
    interned and given integers would name the same classes.  Records
    may leave the label out (see ``Dataset``).
    """
    manifest_path, where = Path(manifest_path), show_path(manifest_path)
    lines = read_text(manifest_path).splitlines()
    base = manifest_path.parent
    intern: dict[str, int] = {}
    label_type = None
    sequences: list[TimeSeries] = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except (ValueError, RecursionError) as exc:  # RecursionError: nesting deeper than the parser's limit
            raise DataError(f"{where}: line {lineno}: invalid JSON ({exc})") from None
        if not isinstance(rec, dict) or "id" not in rec or "path" not in rec:
            raise DataError(f"{where}: line {lineno}: record must be an object with 'id' and 'path'")
        if not isinstance(rec["path"], str):
            raise DataError(f"{where}: line {lineno}: 'path' must be a string")
        label = rec.get("label")
        if isinstance(label, bool) or not isinstance(label, (str, int, type(None))):
            raise DataError(f"{where}: line {lineno}: 'label' must be a string or an integer")
        if isinstance(label, int) and not _INT64.min <= label <= _INT64.max:
            raise DataError(f"{where}: line {lineno}: integer 'label' {label} does not fit in int64")
        if label is not None:
            label_type = label_type or type(label)
            if type(label) is not label_type:
                raise DataError(f"{where}: line {lineno}: 'label' {label!r} mixes string and integer labels")
        if isinstance(label, str):
            label = intern.setdefault(label, len(intern))
        values = _load_csv(base / rec["path"])
        sequences.append(TimeSeries(id=str(rec["id"]), values=values, label=label))
    if not sequences:
        raise DataError(f"{where}: manifest lists no sequences")
    names = {v: k for k, v in intern.items()} if intern else None
    return Dataset(sequences, label_names=names)


def save_dataset(dataset: Dataset, out_dir: str | Path, name: str = "manifest") -> Path:
    """Write sequences as CSV plus a JSON-lines manifest; returns the manifest path.

    Values are written with repr-precision so a reload is bit-identical.
    The old manifest is removed first and the new one written last, so an
    interrupted rewrite leaves no manifest listing a mix of old and new files.
    """
    out_dir = Path(out_dir)
    make_dir(out_dir / name)
    manifest = out_dir / f"{name}.jsonl"
    remove_file(manifest)
    records = []
    for seq in dataset.sequences:
        rel = f"{name}/{seq.id}.csv"
        write_text(out_dir / rel, "".join(",".join(map(repr, col)) + "\n" for col in seq.values.T.tolist()))
        rec = {"id": seq.id, "path": rel}
        if seq.label is not None:
            rec["label"] = int(seq.label)
        records.append(rec)
    if dataset.label_names:
        write_json(out_dir / f"{name}.labels.json", {str(k): v for k, v in dataset.label_names.items()})
    write_text(manifest, "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in records))
    return manifest


@dataclass(frozen=True)
class SynthConfig:
    """Configuration for the synthetic composite-class generator."""

    num_seen_classes: int = 4
    num_unseen_classes: int = 2
    dims: int = 2
    length_range: tuple[int, int] = (60, 90)
    samples_per_class: int = 20
    noise_std: float = 0.05
    seed: int = 0

    def __post_init__(self):
        for name, minimum in (("num_seen_classes", 2), ("num_unseen_classes", 1), ("dims", 2),
                              ("samples_per_class", 1), ("seed", 0)):
            check_int(name, getattr(self, name), minimum, DataError)
        check_number("noise_std", self.noise_std, positive=False, error=DataError)
        if not isinstance(self.length_range, (list, tuple)) or len(self.length_range) != 2:
            raise DataError(f"length_range must be two integers, got {self.length_range!r}")
        check_int("length_range[0]", self.length_range[0], 8, DataError)
        check_int("length_range[1]", self.length_range[1], self.length_range[0], DataError)


def _template_bank(rng: np.random.Generator, num_classes: int, dims: int):
    """Per (class, dimension) smooth prototype functions on u in [0, 1].

    Each dimension uses one shape family (sinusoid, bump, plateau, ramp);
    classes are told apart by well-separated level offsets plus family
    texture with a small seeded jitter.  Level separation is deliberate:
    monotone time warping cannot shrink a pointwise value gap, so
    per-dimension class identity survives warping and noise.
    """
    spacing = 2.0

    def make(cls: int, dim: int):
        family = dim % 4
        jit = rng.uniform(-1.0, 1.0, size=3)
        offset = spacing * cls + 0.1 * jit[2]
        if family == 0:
            freq = 0.9 + 0.1 * jit[0]
            phase = 0.4 * cls + 0.15 * jit[1]
            return lambda u: offset + 0.5 * np.sin(2.0 * np.pi * freq * u + phase)
        if family == 1:
            center = 0.35 + 0.3 * ((cls % 2) + 0.2 * jit[0])
            width = 0.16 + 0.02 * jit[1]
            return lambda u: offset + 0.5 * np.exp(-((u - center) ** 2) / (2.0 * width**2))
        if family == 2:
            center = 0.45 + 0.05 * jit[0]
            steep = 12.0 + 2.0 * jit[1]
            return lambda u: offset + 0.5 / (1.0 + np.exp(-steep * (u - center)))
        slope = (0.8 + 0.1 * jit[0]) * (1.0 if cls % 2 == 0 else -1.0)
        return lambda u: offset + slope * (u - 0.5)

    return {(c, d): make(c, d) for c in range(num_classes) for d in range(dims)}


def _monotone_warp(rng: np.random.Generator, u: np.ndarray) -> np.ndarray:
    """Random monotone remap of [0, 1] onto itself (piecewise linear)."""
    knots_x = np.sort(rng.uniform(0.15, 0.85, size=3))
    knots_y = np.sort(rng.uniform(0.15, 0.85, size=3))
    xs = np.concatenate(([0.0], knots_x, [1.0]))
    ys = np.concatenate(([0.0], knots_y, [1.0]))
    return np.interp(u, xs, ys)


def _emit_sample(rng, templates, cfg: SynthConfig) -> np.ndarray:
    lo, hi = cfg.length_range
    if cfg.noise_std == 0.0:
        length = (lo + hi) // 2
        u = np.linspace(0.0, 1.0, length)
        return np.vstack([templates[d](u) for d in range(cfg.dims)])
    base = (lo + hi) // 2
    length = int(np.clip(round(base * rng.uniform(0.8, 1.2)), lo, hi))
    u = _monotone_warp(rng, np.linspace(0.0, 1.0, length))
    rows = []
    for d in range(cfg.dims):
        rows.append(templates[d](u) + rng.normal(0.0, cfg.noise_std, size=length))
    return np.vstack(rows)


def synth_dataset(cfg: SynthConfig):
    """Generate a (seen, unseen, provenance) triple.

    Each unseen class recombines dimension templates from two distinct seen
    classes: the first ceil(f/2) dimensions come from one class, the rest
    from another.  ``provenance`` maps each unseen class label to the seen
    class sourcing each dimension.  Identical seeds give identical output.
    """
    rng = np.random.default_rng(cfg.seed)
    c, f = cfg.num_seen_classes, cfg.dims
    bank = _template_bank(rng, c, f)

    pairs = [(a, b) for a in range(c) for b in range(c) if a != b]
    if cfg.num_unseen_classes > len(pairs):
        raise DataError(
            f"{cfg.num_unseen_classes} unseen classes requested but only "
            f"{len(pairs)} distinct seen-class combinations exist"
        )
    order = rng.permutation(len(pairs))
    chosen = [pairs[i] for i in order[: cfg.num_unseen_classes]]

    seen_seqs = []
    for cls in range(c):
        templates = {d: bank[(cls, d)] for d in range(f)}
        for i in range(cfg.samples_per_class):
            values = _emit_sample(rng, templates, cfg)
            seen_seqs.append(TimeSeries(id=f"seen-{cls}-{i:03d}", values=values, label=cls))

    half = math.ceil(f / 2)
    unseen_seqs = []
    provenance: dict[str, dict] = {}
    for u, (a, b) in enumerate(chosen):
        label = c + u
        source = {d: (a if d < half else b) for d in range(f)}
        provenance[str(label)] = {
            "sources": {str(d): int(s) for d, s in source.items()},
            "mixed_from": [int(a), int(b)],
        }
        templates = {d: bank[(source[d], d)] for d in range(f)}
        for i in range(cfg.samples_per_class):
            values = _emit_sample(rng, templates, cfg)
            unseen_seqs.append(TimeSeries(id=f"unseen-{label}-{i:03d}", values=values, label=label))

    return Dataset(seen_seqs), Dataset(unseen_seqs), provenance
