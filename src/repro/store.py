"""repro.store — the versioned on-disk form of a fitted LOF model.

Section 7.4 treats the materialization database M as a first-class
artifact: step 1 writes it once, and LOF for *any* MinPts value is then
derived from M in O(n) scans, "the original database D is not needed".
This module makes that artifact durable, so the expensive index +
materialize cost is paid once and scoring — offline sweeps or the
online service of :mod:`repro.serve` — runs against the stored model in
a fresh process.

A store holds, in one self-describing binary file:

* the :class:`~repro.core.graph.NeighborhoodGraph` columns (padded
  neighbor-id / distance arrays, ``k_max``);
* the duplicate-mode policy and, for ``'distinct'``, the coordinate
  group keys;
* every per-MinPts table the model had filled (``lrd``, ``lof``,
  ``score@{scorer}``, ``aux@{scorer}@{name}``), one section each,
  shaped as in memory: row ``k - 1`` is MinPts k, rows never computed
  are zeros; row t of the ``filled`` section marks the computed rows
  of the t-th table in name order;
* the active scorer's name in the header;
* optionally the dataset snapshot ``X`` (required for online scoring of
  new points) and the fitted-estimator results (aggregated scores, the
  MinPts grid and aggregate; a load rebuilds the per-MinPts matrix from
  the rows of the scorer's table at the grid);
* the metric identity and, when available, the instrumentation (obs)
  snapshot of the fit.

File format (version 4)
-----------------------
Everything is little-endian::

    magic    8 bytes   b"REPROLOF"
    version  u32       format version (currently 4)
    reserved u32       zero
    hlen     u64       byte length of the JSON header that follows
    header   hlen      UTF-8 JSON (metadata + section table)
    ...      ...       zero padding to the first 64-byte boundary
    sections           raw array bytes, each starting 64-byte aligned

Version 4 is the only readable version: v2/v3 stores (one section per
MinPts) raise :class:`~repro.exceptions.StoreVersionError`; re-fit them.

The header's ``sections`` table lists, per section: ``name``, ``dtype``
(numpy little-endian string), ``shape``, ``offset`` (absolute, 64-byte
aligned so ``mmap`` slices are well-aligned), ``nbytes``, and a
``sha256`` of the section's raw bytes. Loads verify every checksum by
default — a flipped bit raises :class:`~repro.exceptions.
StoreCorruptionError` rather than ever producing garbage scores.

A load requires the padding after the header and between sections to
be zero (the checksums cover section bytes only), in the same pass.

Versioning rules (see ``docs/serving.md``): the magic never changes; a
reader rejects any version but its own with
:class:`~repro.exceptions.StoreVersionError` (no silent coercion);
adding new *optional* header keys does not bump the version, changing
the meaning or layout of a section does.

I/O cost
--------
Every byte moves once. A save hashes and writes each section straight
from its contiguous array buffer (no ``tobytes`` copy of the model), so
saving a fit costs the JSON header in memory, not a second copy of M.
A load opens the file once: the header and every section come through
that one handle, and the section table is checked against the file
size before any section is read. An in-memory load reads each section
once, straight into its final writable native-order array, and hashes
that array in the same pass; a table section is the table itself.

Memmap loads
------------
``load_model(path, mmap=True)`` maps the file once and cuts every
section as a read-only view of that one map, so a store larger than
memory still serves every MinPts and online queries. The tables are
those views; the first MinPts the store lacks copies its table before
the row is written, never the file. Checksum
verification streams the sections through one reused buffer rather
than through the map, so verifying never faults the mapped pages into
the process. Because the map is made from the handle the header was
read from, a store renamed over the path mid-load cannot mix sections
of two files.
"""

from __future__ import annotations

import hashlib
import json
import math
import mmap as _mmap
import os
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, NamedTuple, Optional, Tuple, Union

import numpy as np

from . import obs
from .exceptions import (
    StoreCorruptionError,
    StoreFormatError,
    StoreMismatchError,
    StoreVersionError,
    ValidationError,
)

PathLike = Union[str, Path]

MAGIC = b"REPROLOF"
FORMAT_VERSION = 4
_READABLE_VERSIONS = (4,)
_ALIGN = 64
_HEADER_FIXED = 8 + 4 + 4 + 8  # magic + version + reserved + hlen
_HASH_CHUNK = 1 << 20  # 1 MiB per read while verifying checksums

_KNOWN_KINDS = ("materialization", "estimator")
_INT_SECTIONS = ("padded_ids", "coord_keys", "filled", "min_pts_values")
#: Every other section is a per-MinPts table.
_FIXED_SECTIONS = _INT_SECTIONS + ("padded_dists", "X", "scores")


# ---------------------------------------------------------------------------
# in-memory representation of a loaded store


@dataclass
class StoredModel:
    """Everything :func:`load_model` recovered from one store file.

    ``mat`` is a fully functional :class:`~repro.core.materialization.
    MaterializationDB` whose per-MinPts tables are the file's table
    sections, so step-2 queries read the persisted rows instead of
    recomputing. ``X`` is the dataset snapshot (``None`` if the store
    was saved without one); online scoring requires it.
    """

    path: Path
    kind: str
    header: Dict
    mat: "MaterializationDB"  # noqa: F821 - resolved lazily
    X: Optional[np.ndarray] = None
    metric: str = "euclidean"
    metric_p: Optional[float] = None
    scorer: str = "lof"
    estimator: Optional[Dict] = None
    lof_matrix: Optional[np.ndarray] = None
    scores: Optional[np.ndarray] = None
    min_pts_values: Optional[np.ndarray] = None
    mmap: bool = False
    obs_snapshot: Optional[Dict] = field(default=None, repr=False)

    @property
    def n_points(self) -> int:
        return self.mat.n_points

    @property
    def min_pts_ub(self) -> int:
        return self.mat.min_pts_ub

    def require_snapshot(self) -> np.ndarray:
        """The dataset snapshot, or a typed error explaining its absence."""
        if self.X is None:
            raise StoreMismatchError(
                f"{self.path} was saved without the dataset snapshot; "
                "online scoring needs the raw vectors — re-save with "
                "save_model(..., X=X)"
            )
        return self.X

    def metric_object(self):
        """The :class:`~repro.index.metrics.Metric` the model was built with."""
        from .index.metrics import MinkowskiMetric, get_metric

        if self.metric == "minkowski":
            return MinkowskiMetric(p=self.metric_p if self.metric_p else 2.0)
        return get_metric(self.metric)

    @property
    def lineage(self) -> Optional[Dict]:
        """The refit-lineage block (parent fingerprint, trigger reason,
        stream position) stamped by the streaming lifecycle, or None for
        stores written outside it."""
        return self.header.get("lineage")

    @property
    def fingerprint(self) -> str:
        """The content identity of this store version (see
        :func:`store_fingerprint`)."""
        return store_fingerprint(self.header)


# ---------------------------------------------------------------------------
# writing


def _created_by() -> str:
    from . import __version__

    return f"repro {__version__}"


def _metric_identity(metric) -> Dict:
    """Serialize a metric name/instance to {'name': ..., 'p': ...?}."""
    from .index.metrics import Metric, MinkowskiMetric, get_metric

    metric_obj = metric if isinstance(metric, Metric) else get_metric(metric)
    ident: Dict = {"name": metric_obj.name}
    if isinstance(metric_obj, MinkowskiMetric):
        ident["p"] = metric_obj.p
    return ident


def save_model(
    path: PathLike,
    model,
    X=None,
    metric="euclidean",
    scorer="lof",
    lineage: Optional[Dict] = None,
) -> Path:
    """Persist a fitted model to ``path`` in the format above.

    ``model`` is either a :class:`~repro.core.materialization.
    MaterializationDB` or a fitted :class:`~repro.core.estimator.
    LocalOutlierFactor` (which brings its own snapshot, metric, grid,
    scorer and obs profile — ``X``/``metric``/``scorer`` are then taken
    from the estimator and must not be passed). ``lineage`` is an
    optional JSON-serializable provenance block recorded in the header
    (the streaming lifecycle stamps the parent store's fingerprint,
    trigger reason and stream position there — an optional header key,
    no version bump). Returns the path written.
    """
    from .core.estimator import LocalOutlierFactor
    from .core.materialization import MaterializationDB

    path = Path(path)
    if isinstance(model, LocalOutlierFactor):
        if X is not None:
            raise ValidationError(
                "X is taken from the fitted estimator; do not pass it"
            )
        return _save_estimator(path, model, lineage=lineage)
    if isinstance(model, MaterializationDB):
        return _save_database(
            path, model, X=X, metric=metric, scorer=scorer, lineage=lineage
        )
    raise ValidationError(
        "save_model accepts a MaterializationDB or a fitted "
        f"LocalOutlierFactor, got {type(model).__name__}"
    )


def _mat_sections(mat, X) -> Dict[str, np.ndarray]:
    tables = mat.tables()
    # 'filled' first: with no table it is empty, and an empty last
    # section would end the file on unchecked padding.
    filled = [mask for _, mask in tables.values()]
    sections: Dict[str, np.ndarray] = {
        "filled": np.array(filled, np.int64).reshape(len(tables), mat.min_pts_ub),
        "padded_ids": mat.padded_ids,
        "padded_dists": mat.padded_dists,
    }
    if mat.coord_keys is not None:
        sections["coord_keys"] = np.asarray(mat.coord_keys)
    if X is not None:
        sections["X"] = X
    for name, (values, _) in tables.items():
        sections[name] = values
    return sections


def _save_database(
    path: Path, mat, X=None, metric="euclidean", scorer="lof", lineage=None
) -> Path:
    from .scorers import get_scorer

    if X is not None:
        from ._validation import check_data

        X = check_data(X, min_rows=2)
        if X.shape[0] != mat.n_points:
            raise ValidationError(
                f"snapshot X has {X.shape[0]} rows but the materialization "
                f"covers {mat.n_points} objects"
            )
    header = {
        "kind": "materialization",
        "created_by": _created_by(),
        "n_points": int(mat.n_points),
        "width": int(mat.padded_ids.shape[1]),
        "n_features": None if X is None else int(X.shape[1]),
        "min_pts_ub": int(mat.min_pts_ub),
        "duplicate_mode": mat.duplicate_mode,
        "metric": _metric_identity(metric),
        "scorer": get_scorer(scorer).name,
    }
    if lineage is not None:
        header["lineage"] = lineage
    return _write(path, header, _mat_sections(mat, X))


def _save_estimator(path: Path, est, lineage=None) -> Path:
    result = est._require_fitted()
    mat = est.materialization_
    X = getattr(est, "X_", None)
    if X is None:
        raise ValidationError(
            "the fitted estimator kept no dataset snapshot; re-fit before saving"
        )
    header = {
        "kind": "estimator",
        "created_by": _created_by(),
        "n_points": int(mat.n_points),
        "width": int(mat.padded_ids.shape[1]),
        "n_features": int(X.shape[1]),
        "min_pts_ub": int(mat.min_pts_ub),
        "duplicate_mode": mat.duplicate_mode,
        "metric": _metric_identity(est.metric),
        "scorer": getattr(est, "scorer", "lof"),
        "estimator": {
            "aggregate": result.aggregate,
            "threshold": float(est.threshold),
            "min_pts_lb": int(result.min_pts_values[0]),
            "min_pts_ub": int(result.min_pts_values[-1]),
            "scorer": getattr(est, "scorer", "lof"),
        },
        "obs_snapshot": est.profile_,
    }
    if lineage is not None:
        header["lineage"] = lineage
    sections = _mat_sections(mat, X)
    sections["scores"] = result.scores
    sections["min_pts_values"] = np.asarray(result.min_pts_values)
    return _write(path, header, sections)


def _write(path: Path, header: Dict, sections: Dict[str, np.ndarray]) -> Path:
    table = []
    payloads = []
    # The section table needs final offsets, which depend on the header
    # length, which depends on the digit count of the encoded offsets.
    # Iterate to a fixpoint: each pass encodes the current offsets and
    # recomputes them from the resulting header length; once two passes
    # produce the same bytes, the encoded offsets are the real ones.
    # Converges fast — offsets only grow with header length, and digit
    # counts stabilize after one or two rounds.
    for name, arr in sections.items():
        dtype = "<i8" if name in _INT_SECTIONS else "<f8"
        # The section's own buffer: no copy for the usual native-order
        # float64/int64 arrays. A 0-d array comes back as shape (1,), so
        # the table takes the shape from ``arr``.
        payload = np.ascontiguousarray(arr, dtype=dtype)
        table.append(
            {
                "name": name,
                "dtype": dtype,
                "shape": list(np.shape(arr)),
                "offset": 0,
                "nbytes": int(payload.nbytes),
                "sha256": hashlib.sha256(payload).hexdigest(),
            }
        )
        payloads.append(payload)
    header = dict(header)
    header["format_version"] = FORMAT_VERSION
    header["sections"] = table

    def _layout() -> bytes:
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        offset = _align(_HEADER_FIXED + len(blob))
        for entry in table:
            entry["offset"] = offset
            offset = _align(offset + entry["nbytes"])
        return blob

    blob = _layout()
    while True:
        encoded = _layout()
        if encoded == blob:
            break
        blob = encoded
    # Write a temp file beside the target, then rename it over the path:
    # a reader sees the old store or the new one, never a torn one, and
    # a server that memory-mapped the old file keeps its (unlinked)
    # inode instead of having it truncated underneath. The file is
    # synced before the rename and the directory after it, so a crash
    # cannot leave the new name on an empty file or lose the rename.
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{uuid.uuid4().hex}.tmp")
    try:
        with tmp.open("xb") as fh:
            _write_body(fh, blob, table, payloads)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    _fsync_dir(path.parent)
    obs.incr("store.saves")
    return path


def _fsync_dir(directory: Path) -> None:
    """Make a rename in ``directory`` durable (POSIX; a no-op where a
    directory cannot be opened, as on Windows)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _write_body(fh, blob: bytes, table, payloads) -> None:
    fh.write(MAGIC)
    fh.write(int(FORMAT_VERSION).to_bytes(4, "little"))
    fh.write(b"\x00\x00\x00\x00")
    fh.write(len(blob).to_bytes(8, "little"))
    fh.write(blob)
    pos = _HEADER_FIXED + len(blob)
    for entry, payload in zip(table, payloads):
        fh.write(b"\x00" * (entry["offset"] - pos))
        fh.write(payload)
        pos = entry["offset"] + entry["nbytes"]


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


# ---------------------------------------------------------------------------
# reading


def read_header(path: PathLike) -> Dict:
    """Parse and validate the JSON header of a store file (cheap: no
    section data is read)."""
    path = Path(path)
    with open(path, "rb", buffering=0) as fh:
        return _read_header(fh, path, os.fstat(fh.fileno()).st_size)


def _read_header(fh, path: Path, size: int) -> Dict:
    fixed = fh.read(_HEADER_FIXED)
    if len(fixed) < _HEADER_FIXED or fixed[:8] != MAGIC:
        raise StoreFormatError(
            f"{path} is not a repro model store (bad or missing magic)"
        )
    version = int.from_bytes(fixed[8:12], "little")
    if version not in _READABLE_VERSIONS:
        readable = ", ".join(str(v) for v in _READABLE_VERSIONS)
        raise StoreVersionError(
            f"{path} uses store format version {version}; this build "
            f"reads version {readable} only — re-fit the model to write "
            "a store this build reads"
        )
    hlen = int.from_bytes(fixed[16:24], "little")
    # Checked before reading: a damaged length field must not become a
    # multi-gigabyte allocation.
    if hlen > size - _HEADER_FIXED:
        raise StoreCorruptionError(
            f"{path} is truncated inside the header: it declares {hlen} "
            f"header bytes but {size - _HEADER_FIXED} follow"
        )
    blob = fh.read(hlen)
    if len(blob) < hlen:
        raise StoreCorruptionError(f"{path} is truncated inside the header")
    try:
        header = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StoreCorruptionError(
            f"{path} has an unreadable header: {exc}"
        ) from exc
    kind = header.get("kind") if isinstance(header, dict) else None
    if kind not in _KNOWN_KINDS:
        raise StoreFormatError(f"{path} declares unknown store kind {kind!r}")
    if not isinstance(header.get("sections"), list):
        raise StoreCorruptionError(f"{path} header carries no section table")
    return header


def store_fingerprint(header: Dict) -> str:
    """A stable content identity for one store version.

    sha256 over the sorted per-section ``(name, sha256)`` pairs of the
    header's section table — the same digests the load-time integrity
    check verifies, so two stores share a fingerprint iff their array
    payloads are byte-identical. Serving exposes it (``GET /model``,
    ``POST /admin/reload``) so a fleet operator can confirm every worker
    is answering from the same model version without re-hashing data.
    """
    digest = hashlib.sha256()
    for entry in sorted(
        header.get("sections", ()), key=lambda e: str(e.get("name"))
    ):
        digest.update(str(entry.get("name")).encode("utf-8"))
        digest.update(b"\x00")
        digest.update(str(entry.get("sha256")).encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


class _Section(NamedTuple):
    name: str
    dtype: np.dtype
    shape: Tuple[int, ...]
    offset: int
    nbytes: int
    sha256: str


def _section_layout(path: Path, entry: Dict, size: int) -> _Section:
    """One section-table entry, checked against itself and the file size
    before any of its bytes are read."""
    try:
        section = _Section(
            str(entry["name"]),
            np.dtype(entry["dtype"]),
            tuple(int(s) for s in entry["shape"]),
            int(entry["offset"]),
            int(entry["nbytes"]),
            str(entry["sha256"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise StoreCorruptionError(
            f"{path} has a malformed section table entry: {exc}"
        ) from exc
    name, dtype, shape = section.name, section.dtype, section.shape
    if dtype.kind not in "fiu" or min(shape, default=0) < 0:
        raise StoreCorruptionError(
            f"{path} section {name!r} declares dtype {dtype.str} and shape "
            f"{shape}, which no store holds"
        )
    expected = math.prod(shape) * dtype.itemsize
    if expected != section.nbytes:
        raise StoreCorruptionError(
            f"{path} section {name!r} declares shape {shape} "
            f"({expected} bytes) but stores {section.nbytes} bytes"
        )
    end = section.offset + section.nbytes
    if section.offset < _HEADER_FIXED or end > size:
        raise StoreCorruptionError(
            f"{path} is truncated: section {name!r} spans bytes "
            f"{section.offset}..{end} but the file has {size}"
        )
    return section


def _fill(fh, buf: memoryview, path: Path, name: str) -> None:
    """Read exactly ``len(buf)`` bytes from ``fh`` into ``buf``."""
    got = 0
    while got < len(buf):
        n = fh.readinto(buf[got:])
        if not n:
            raise StoreCorruptionError(
                f"{path} is truncated inside section {name!r}"
            )
        got += n


def _check_digest(path: Path, section: _Section, digest) -> None:
    if digest.hexdigest() != section.sha256:
        raise StoreCorruptionError(
            f"{path} section {section.name!r} fails its checksum; "
            "the store is corrupt and will not be scored"
        )


def _read_section(fh, path: Path, section: _Section, verify: bool) -> np.ndarray:
    """Read one section straight into its final array, hashing it in the
    same pass."""
    arr = np.empty(section.shape, section.dtype)
    buf = memoryview(arr.reshape(-1).view(np.uint8))
    fh.seek(section.offset)
    _fill(fh, buf, path, section.name)
    if verify:
        _check_digest(path, section, hashlib.sha256(buf))
    if not arr.dtype.isnative:
        arr = arr.astype(arr.dtype.newbyteorder("="))
    return arr


def _verify_streamed(fh, path: Path, sections) -> None:
    """Hash every section through one reused buffer (the memmap load's
    check: reading through the map would fault every page in)."""
    largest = max((s.nbytes for s in sections), default=0)
    scratch = memoryview(bytearray(min(_HASH_CHUNK, largest)))
    for section in sections:
        digest = hashlib.sha256()
        fh.seek(section.offset)
        remaining = section.nbytes
        while remaining:
            chunk = scratch[: min(len(scratch), remaining)]
            _fill(fh, chunk, path, section.name)
            digest.update(chunk)
            remaining -= len(chunk)
        _check_digest(path, section, digest)


def _padding(path: Path, sections, end: int, size: int):
    """``(offset, length)`` of the padding before each section: each one
    starts at the first 64-byte boundary after the header or the section
    before it, and the last one ends the file."""
    gaps = []
    for section in sections:
        gaps.append((end, section.offset - end))
        if section.offset != _align(end):
            break
        end = section.offset + section.nbytes
    else:
        if end == size:
            return gaps
    raise StoreCorruptionError(f"{path} lays out its sections as no store does")


def _check_padding(path: Path, pad, offset: int) -> None:
    if any(pad):
        raise StoreCorruptionError(f"{path} has non-zero padding at byte {offset}")


def _read_sections(
    fh, path: Path, header: Dict, size: int, mmap: bool, verify: bool
) -> Dict[str, np.ndarray]:
    """Every section of the table, each read once from ``fh``: into
    fresh writable arrays, or as read-only views of one map of the file;
    the zero padding before each in the same pass."""
    sections = [_section_layout(path, entry, size) for entry in header["sections"]]
    gaps = _padding(path, sections, fh.tell(), size)
    if not mmap:
        arrays = {}
        for section, (offset, length) in zip(sections, gaps):
            fh.seek(offset)
            _check_padding(path, fh.read(length), offset)
            arrays[section.name] = _read_section(fh, path, section, verify)
        return arrays
    if verify:
        _verify_streamed(fh, path, sections)
    mapped = _mmap.mmap(fh.fileno(), 0, access=_mmap.ACCESS_READ)
    for offset, length in gaps:
        _check_padding(path, mapped[offset : offset + length], offset)
    return {
        s.name: np.frombuffer(
            mapped, dtype=s.dtype, count=s.nbytes // s.dtype.itemsize,
            offset=s.offset,
        ).reshape(s.shape)
        for s in sections
    }


def _check_required(path: Path, header: Dict) -> None:
    """Reject a section table that lacks what its kind needs, before any
    section is read."""
    names = {
        entry.get("name") for entry in header["sections"] if isinstance(entry, dict)
    }
    for required in ("padded_ids", "padded_dists", "filled"):
        if required not in names:
            raise StoreCorruptionError(
                f"{path} is missing the required section {required!r}"
            )
    if header["kind"] == "estimator":
        for required in ("scores", "min_pts_values"):
            if required not in names:
                raise StoreCorruptionError(
                    f"{path} is an estimator store missing section {required!r}"
                )


def load_model(path: PathLike, mmap: bool = False, verify: bool = True) -> StoredModel:
    """Load a model store written by :func:`save_model`.

    The file is opened once and every section read once (see "I/O
    cost" above). ``mmap=True`` cuts the array sections from one map of
    the file (read-only, suitable for stores larger than RAM);
    ``verify=False`` skips the checksums (integrity errors then surface only as
    wrong-size sections, never silently as wrong scores of the right
    shape — use it only on trusted files).
    """
    from .core.graph import NeighborhoodGraph
    from .core.materialization import MaterializationDB

    path = Path(path)
    with open(path, "rb", buffering=0) as fh:
        size = os.fstat(fh.fileno()).st_size
        header = _read_header(fh, path, size)
        _check_required(path, header)
        arrays = _read_sections(fh, path, header, size, mmap, verify)

    ub = int(header["min_pts_ub"])
    names = sorted(set(arrays) - set(_FIXED_SECTIONS))
    filled = arrays["filled"]
    if filled.shape != (len(names), ub) or any(
        arrays[n].shape[:1] != (ub,) for n in names
    ):
        raise StoreCorruptionError(f"{path} has tables that do not fit 'filled'")
    mat = MaterializationDB.from_graph(
        NeighborhoodGraph(arrays["padded_ids"], arrays["padded_dists"], k_max=ub),
        duplicate_mode=header["duplicate_mode"],
        coord_keys=arrays.get("coord_keys"),
        tables={name: (arrays[name], mask) for name, mask in zip(names, filled)},
    )

    metric_ident = header.get("metric") or {"name": "euclidean"}
    model = StoredModel(
        path=path,
        kind=header["kind"],
        header=header,
        mat=mat,
        X=arrays.get("X"),
        metric=metric_ident.get("name", "euclidean"),
        metric_p=metric_ident.get("p"),
        scorer=str(header.get("scorer", "lof")),
        estimator=header.get("estimator"),
        mmap=mmap,
        obs_snapshot=header.get("obs_snapshot"),
    )
    if header["kind"] == "estimator":
        model.min_pts_values = arrays["min_pts_values"]
        model.lof_matrix = mat.fit(model.scorer, model.min_pts_values).tables["score"]
        model.scores = arrays["scores"]
    obs.incr("store.loads")
    return model
