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
* every per-MinPts lrd/LOF cache vector the model had computed;
* every non-LOF registry score vector (``score@{scorer}@{k}``) and
  scorer aux array (``aux@{scorer}@{name}@{k}``) the model had computed
  — e.g. LoOP's per-object pdist vector and nPLOF scalar — plus the
  active scorer's name in the header;
* optionally the dataset snapshot ``X`` (required for online scoring of
  new points) and the fitted-estimator results (per-MinPts LOF matrix,
  aggregated scores, the MinPts grid and aggregate);
* the metric identity and, when available, the instrumentation (obs)
  snapshot of the fit.

File format (version 3)
-----------------------
Everything is little-endian::

    magic    8 bytes   b"REPROLOF"
    version  u32       format version (currently 3)
    reserved u32       zero
    hlen     u64       byte length of the JSON header that follows
    header   hlen      UTF-8 JSON (metadata + section table)
    ...      ...       zero padding to the first 64-byte boundary
    sections           raw array bytes, each starting 64-byte aligned

Version 3 adds the ``scorer`` header key and the per-scorer
``score@``/``aux@`` sections; version 2 files (no scorer metadata) are
still readable and load as ``scorer='lof'``.

The header's ``sections`` table lists, per section: ``name``, ``dtype``
(numpy little-endian string), ``shape``, ``offset`` (absolute, 64-byte
aligned so ``mmap`` slices are well-aligned), ``nbytes``, and a
``sha256`` of the section's raw bytes. Loads verify every checksum by
default — a flipped bit raises :class:`~repro.exceptions.
StoreCorruptionError` rather than ever producing garbage scores.

Versioning rules (see ``docs/serving.md``): the magic never changes; a
reader rejects any version it does not know with
:class:`~repro.exceptions.StoreVersionError` (no silent coercion);
adding new *optional* sections or header keys does not bump the
version, changing the meaning or layout of existing ones does.

Memmap loads
------------
``load_model(path, mmap=True)`` maps the big array sections straight
from the file instead of reading them into RAM, so a store larger than
memory still serves every MinPts and online queries; checksum
verification streams the file in chunks and never materializes a
section. The returned arrays are read-only.
"""

from __future__ import annotations

import hashlib
import json
import os
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Union

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
FORMAT_VERSION = 3
#: Versions this build can load. v2 lacks the scorer metadata and the
#: per-scorer score/aux sections; it loads as scorer='lof'.
_READABLE_VERSIONS = (2, 3)
_ALIGN = 64
_HEADER_FIXED = 8 + 4 + 4 + 8  # magic + version + reserved + hlen
_HASH_CHUNK = 1 << 22  # 4 MiB per read while verifying checksums

#: Sections a reader of version 2 understands. Unknown section names are
#: ignored on load (forward compatibility for optional additions).
_KNOWN_KINDS = ("materialization", "estimator")


# ---------------------------------------------------------------------------
# in-memory representation of a loaded store


@dataclass
class StoredModel:
    """Everything :func:`load_model` recovered from one store file.

    ``mat`` is a fully functional :class:`~repro.core.materialization.
    MaterializationDB` with its per-MinPts lrd/LOF caches re-seeded from
    the file, so step-2 queries hit the persisted vectors instead of
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


def _section_payload(arr: np.ndarray, dtype: str) -> bytes:
    return np.ascontiguousarray(arr, dtype=dtype).tobytes()


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
    sections: Dict[str, np.ndarray] = {
        "padded_ids": mat.padded_ids,
        "padded_dists": mat.padded_dists,
    }
    if mat.coord_keys is not None:
        sections["coord_keys"] = np.asarray(mat.coord_keys)
    if X is not None:
        sections["X"] = X
    for k, vec in sorted(mat.cached_lrd().items()):
        sections[f"lrd@{k}"] = vec
    for k, vec in sorted(mat.cached_lof().items()):
        sections[f"lof@{k}"] = vec
    # Registry caches. LOF score vectors are skipped: lof@{k} above is
    # the same data, and the loader re-seeds the lof scorer from it.
    for (name, k), vec in sorted(mat.cached_scorer_scores().items()):
        if name == "lof":
            continue
        sections[f"score@{name}@{k}"] = vec
    for (name, k), mapping in sorted(mat.cached_scorer_aux().items()):
        for aname, arr in sorted(mapping.items()):
            sections[f"aux@{name}@{aname}@{k}"] = arr
    return sections


def _section_dtype(name: str) -> str:
    return "<i8" if name in ("padded_ids", "coord_keys", "min_pts_values") else "<f8"


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
    sections["lof_matrix"] = result.lof_matrix
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
        dtype = _section_dtype(name)
        payload = _section_payload(arr, dtype)
        table.append(
            {
                "name": name,
                "dtype": dtype,
                "shape": list(np.shape(arr)),
                "offset": 0,
                "nbytes": len(payload),
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
    with path.open("rb") as fh:
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
                f"reads versions {readable} only"
            )
        hlen = int.from_bytes(fixed[16:24], "little")
        blob = fh.read(hlen)
        if len(blob) < hlen:
            raise StoreCorruptionError(f"{path} is truncated inside the header")
        try:
            header = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise StoreCorruptionError(
                f"{path} has an unreadable header: {exc}"
            ) from exc
    if header.get("kind") not in _KNOWN_KINDS:
        raise StoreFormatError(
            f"{path} declares unknown store kind {header.get('kind')!r}"
        )
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


def _verify_sections(path: Path, header: Dict) -> None:
    """Stream every section once and compare sha256 digests."""
    size = path.stat().st_size
    with path.open("rb") as fh:
        for entry in header["sections"]:
            offset, nbytes = int(entry["offset"]), int(entry["nbytes"])
            if offset + nbytes > size:
                raise StoreCorruptionError(
                    f"{path} is truncated: section {entry['name']!r} ends at "
                    f"byte {offset + nbytes} but the file has {size}"
                )
            digest = hashlib.sha256()
            fh.seek(offset)
            remaining = nbytes
            while remaining:
                chunk = fh.read(min(_HASH_CHUNK, remaining))
                if not chunk:
                    raise StoreCorruptionError(
                        f"{path} is truncated inside section {entry['name']!r}"
                    )
                digest.update(chunk)
                remaining -= len(chunk)
            if digest.hexdigest() != entry["sha256"]:
                raise StoreCorruptionError(
                    f"{path} section {entry['name']!r} fails its checksum; "
                    "the store is corrupt and will not be scored"
                )


def _load_section(path: Path, entry: Dict, mmap: bool) -> np.ndarray:
    dtype = np.dtype(entry["dtype"])
    shape = tuple(int(s) for s in entry["shape"])
    offset, nbytes = int(entry["offset"]), int(entry["nbytes"])
    expected = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize if shape else dtype.itemsize
    if expected != nbytes:
        raise StoreCorruptionError(
            f"{path} section {entry['name']!r} declares shape {shape} "
            f"({expected} bytes) but stores {nbytes} bytes"
        )
    if mmap:
        arr = np.memmap(path, mode="r", dtype=dtype, shape=shape, offset=offset)
        return arr
    with path.open("rb") as fh:
        fh.seek(offset)
        raw = fh.read(nbytes)
    if len(raw) < nbytes:
        raise StoreCorruptionError(
            f"{path} is truncated inside section {entry['name']!r}"
        )
    arr = np.frombuffer(raw, dtype=dtype).reshape(shape)
    # frombuffer views are read-only; native-dtype copies make the
    # in-memory load writable and platform-native.
    return arr.astype(dtype.newbyteorder("="), copy=True)


def load_model(path: PathLike, mmap: bool = False, verify: bool = True) -> StoredModel:
    """Load a model store written by :func:`save_model`.

    ``mmap=True`` maps the array sections from the file (read-only,
    suitable for stores larger than RAM); ``verify=False`` skips the
    streaming checksum pass (integrity errors then surface only as
    wrong-size sections, never silently as wrong scores of the right
    shape — use it only on trusted files).
    """
    from .core.materialization import MaterializationDB

    path = Path(path)
    header = read_header(path)
    if verify:
        _verify_sections(path, header)
    by_name = {entry["name"]: entry for entry in header["sections"]}
    for required in ("padded_ids", "padded_dists"):
        if required not in by_name:
            raise StoreCorruptionError(
                f"{path} is missing the required section {required!r}"
            )

    def load(name: str) -> np.ndarray:
        return _load_section(path, by_name[name], mmap)

    coord_keys = load("coord_keys") if "coord_keys" in by_name else None
    mat = MaterializationDB(
        load("padded_ids"),
        load("padded_dists"),
        min_pts_ub=int(header["min_pts_ub"]),
        duplicate_mode=header["duplicate_mode"],
        coord_keys=coord_keys,
    )
    lrd_cache: Dict[int, np.ndarray] = {}
    lof_cache: Dict[int, np.ndarray] = {}
    scorer_scores: Dict = {}
    scorer_aux: Dict = {}
    for name in by_name:
        if name.startswith("lrd@"):
            lrd_cache[int(name[4:])] = np.asarray(load(name))
        elif name.startswith("lof@"):
            lof_cache[int(name[4:])] = np.asarray(load(name))
        elif name.startswith("score@"):
            _, sname, k = name.split("@")
            scorer_scores[(sname, int(k))] = np.asarray(load(name))
        elif name.startswith("aux@"):
            _, sname, aname, k = name.split("@")
            scorer_aux.setdefault((sname, int(k)), {})[aname] = np.asarray(load(name))
    mat.seed_caches(lrd=lrd_cache, lof=lof_cache)
    mat.seed_scorer_caches(scores=scorer_scores, aux=scorer_aux)

    metric_ident = header.get("metric") or {"name": "euclidean"}
    model = StoredModel(
        path=path,
        kind=header["kind"],
        header=header,
        mat=mat,
        X=load("X") if "X" in by_name else None,
        metric=metric_ident.get("name", "euclidean"),
        metric_p=metric_ident.get("p"),
        scorer=str(header.get("scorer", "lof")),
        estimator=header.get("estimator"),
        mmap=mmap,
        obs_snapshot=header.get("obs_snapshot"),
    )
    if header["kind"] == "estimator":
        for required in ("lof_matrix", "scores", "min_pts_values"):
            if required not in by_name:
                raise StoreCorruptionError(
                    f"{path} is an estimator store missing section {required!r}"
                )
        model.lof_matrix = load("lof_matrix")
        model.scores = load("scores")
        model.min_pts_values = np.asarray(load("min_pts_values"))
    obs.incr("store.loads")
    return model
