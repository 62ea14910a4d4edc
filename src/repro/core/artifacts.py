"""Content-addressed cache of trained models — and the one on-disk store.

About ten registered experiments retrain the *same* scaled-down
MLP / SNN on the *same* synthetic dataset — the dominant cost of a
full ``report`` run.  Training here is deterministic (every stochastic
draw goes through :mod:`repro.core.rng`), so a trained model is a pure
function of (model kind, config, dataset, training recipe, code
version).  This module memoizes that function on disk:

* **Key**: SHA-256 over a canonical JSON payload of the config
  dataclass, a content hash of the dataset arrays, the training
  parameters, and a code-version salt (bump
  :data:`CODE_VERSION` whenever a change alters what training
  produces; stale entries then miss instead of poisoning results).
* **Value**: the NPZ serialization of :mod:`repro.core.serialization`.
* **Scope**: keyed by content, not by call site — the cache is shared
  across experiments, across ``--jobs N`` worker processes and across
  repeated ``report`` invocations.

Everything else kept on disk — sweep shards and encoded spike trains
(``sweeps/``), the serving pool's pristine snapshots (``serving/``)
and the live learner's epoch snapshots (``live-snapshots/``) — lives
under the same cache root and goes through the same
:class:`ArtifactStore` protocol: an atomic write with a SHA-256
sidecar, a verified read (:func:`load_verified`) and one size bound.

Controls: ``REPRO_CACHE_DIR`` (or the ``--cache-dir`` CLI flag) moves
the root; ``REPRO_NO_CACHE=1`` (or ``--no-cache``) bypasses it
entirely; ``REPRO_CACHE_MAX_BYTES`` (or ``ModelCache(max_bytes=...)``)
bounds the bytes of every entry under the root with
least-recently-used eviction — hot swaps and live learning write a
new snapshot per promotion, so an unbounded tree would grow forever.
A corrupt or unreadable entry is treated as a miss: the value is
recomputed and the entry overwritten.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
import tempfile
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from .errors import ReproError

#: Salt mixed into every cache key.  Bump when a code change alters
#: the outcome of training (STDP rule, RNG streams, recipes, ...) so
#: previously cached models are invalidated instead of silently reused.
CODE_VERSION = "pr2-batched-1"

#: Default on-disk location (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro-cache"


def cache_enabled() -> bool:
    """False when ``REPRO_NO_CACHE`` is set to a truthy value."""
    return os.environ.get("REPRO_NO_CACHE", "") not in ("1", "true", "yes")


def cache_directory() -> pathlib.Path:
    """The active cache directory (``REPRO_CACHE_DIR`` or default)."""
    return pathlib.Path(os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR))


def cache_max_bytes() -> Optional[int]:
    """Capacity bound from ``REPRO_CACHE_MAX_BYTES`` (None = unbounded).

    Unset, empty, non-numeric and non-positive values all mean
    "unbounded" — a malformed limit must never make caching fail.
    """
    raw = os.environ.get("REPRO_CACHE_MAX_BYTES", "").strip()
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        return None
    return value if value > 0 else None


def dataset_signature(dataset) -> str:
    """Content hash of a dataset (images + labels + identity).

    Hashes the raw array bytes, shapes and dtypes, so *any* change to
    the data — size, noise draw, normalization — changes the key.
    """
    digest = hashlib.sha256()
    images = np.ascontiguousarray(dataset.images)
    labels = np.ascontiguousarray(dataset.labels)
    digest.update(getattr(dataset, "name", "").encode())
    digest.update(str(images.shape).encode() + str(images.dtype).encode())
    digest.update(images.tobytes())
    digest.update(str(labels.shape).encode() + str(labels.dtype).encode())
    digest.update(labels.tobytes())
    return digest.hexdigest()[:24]


def _jsonable(value: Any) -> Any:
    """Canonicalize a value for the key payload (stable across runs)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return dataclasses.asdict(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest()
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def coder_signature(coder) -> Dict[str, Any]:
    """Stable description of a spike coder (class + scalar attributes)."""
    if coder is None:
        return {"class": None}
    attrs = {
        key: _jsonable(value)
        for key, value in sorted(vars(coder).items())
        if isinstance(value, (int, float, str, bool, np.integer, np.floating))
    }
    return {"class": type(coder).__name__, **attrs}


def cache_key(
    kind: str,
    config,
    dataset,
    train_params: Optional[Dict[str, Any]] = None,
) -> str:
    """Content-addressed key for a trained model.

    A stable SHA-256 over (kind, config fields, dataset content hash,
    training parameters, code-version salt); any difference in any
    component yields a different key.
    """
    payload = {
        "kind": kind,
        "config": _jsonable(config),
        "dataset": dataset_signature(dataset),
        "train": _jsonable(train_params or {}),
        "code_version": CODE_VERSION,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


@dataclass
class CacheStats:
    """In-process cache counters (asserted by the tests / bench)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    errors: int = 0  # corrupt entries that fell back to retraining
    corrupt_evictions: int = 0  # sha256 mismatches evicted before load
    capacity_evictions: int = 0  # LRU entries evicted by the size bound

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)

    def summary(self) -> str:
        """One-line human-readable rendering (``repro report --timings``)."""
        return (
            f"{self.hits} hit(s), {self.misses} miss(es), "
            f"{self.stores} store(s), {self.errors} corrupt-entry error(s), "
            f"{self.corrupt_evictions} integrity eviction(s), "
            f"{self.capacity_evictions} capacity eviction(s)"
        )

    def reset(self) -> None:
        self.hits = self.misses = self.stores = self.errors = 0
        self.corrupt_evictions = self.capacity_evictions = 0


def file_digest(path: os.PathLike, chunk_size: int = 1 << 20) -> str:
    """Streaming SHA-256 of a file's contents (hex)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(chunk_size)
            if not chunk:
                break
            digest.update(chunk)
    return digest.hexdigest()


def digest_sidecar(path: os.PathLike) -> pathlib.Path:
    """The ``<entry>.sha256`` integrity sidecar path for an artifact."""
    path = pathlib.Path(path)
    return path.parent / (path.name + ".sha256")


def write_digest_sidecar(path: os.PathLike) -> pathlib.Path:
    """Atomically record ``path``'s SHA-256 next to it; returns the sidecar."""
    path = pathlib.Path(path)
    sidecar = digest_sidecar(path)
    handle, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp.sha256")
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as tmp:
            tmp.write(file_digest(path) + "\n")
        os.replace(tmp_name, sidecar)
    finally:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
    return sidecar


def verify_digest_sidecar(path: os.PathLike) -> Optional[bool]:
    """Check an artifact against its integrity sidecar.

    Returns ``True`` (digest matches), ``False`` (mismatch — the entry
    is corrupt), or ``None`` when no sidecar exists (a legacy entry,
    tolerated: PR-2 caches predate integrity sidecars).
    """
    sidecar = digest_sidecar(path)
    if not sidecar.exists():
        return None
    try:
        expected = sidecar.read_text(encoding="utf-8").strip()
    except OSError:
        return False
    return bool(expected) and file_digest(path) == expected


def _evict(path: pathlib.Path) -> None:
    """Remove an entry and its sidecar (best effort)."""
    for victim in (path, digest_sidecar(path)):
        try:
            victim.unlink()
        except OSError:  # pragma: no cover - already gone / read-only
            pass


def load_verified(path: pathlib.Path, stats: CacheStats, load_fn: Callable):
    """The one verified read of a cache entry.

    Checks the integrity sidecar (a failed check evicts the entry
    *before* deserializing it), loads through ``load_fn``, counts the
    hit and refreshes LRU recency.  Returns the loaded value, or
    ``None`` when the caller must recompute — cache-shaped failures
    (corruption, truncation, missing members) are recorded in
    ``stats``, never raised.
    """
    verdict = verify_digest_sidecar(path)
    if verdict is False:
        # Bit rot / tampering caught by the integrity sidecar: evict
        # the entry *before* deserializing it so the caller recomputes
        # and overwrites with a fresh (re-digested) entry.
        stats.corrupt_evictions += 1
        _evict(path)
        return None
    try:
        value = load_fn(path)
    except (ReproError, OSError, ValueError, KeyError):
        # Corrupt / truncated / stale entry: recompute + overwrite.
        stats.errors += 1
        return None
    stats.hits += 1
    try:
        os.utime(path)  # the LRU recency signal
    except OSError:  # pragma: no cover - read-only cache dir
        pass
    return value


#: Suffix of in-flight writes; never an entry, so never counted,
#: evicted or audited while another writer may still replace it.
_TMP_SUFFIX = ".tmp.npz"


def _tree_entries(root: pathlib.Path) -> List[pathlib.Path]:
    """Every ``*.npz`` entry anywhere under ``root``, sorted by path."""
    return sorted(
        path for path in root.rglob("*.npz") if not path.name.endswith(_TMP_SUFFIX)
    )


class ArtifactStore:
    """The on-disk protocol every cache in this module follows.

    A store keeps ``<key>.npz`` entries in :attr:`directory` (the
    class's ``SUBDIR`` of :attr:`root`), each with a ``<entry>.sha256``
    integrity sidecar:

    * **write** (:meth:`write`): tmp file, ``os.replace`` onto the key,
      then the sidecar — a crashed writer never leaves a half-written
      entry under a valid key;
    * **read** (:meth:`read`): :func:`load_verified` — a failed sidecar
      evicts before deserializing, a corrupt entry reads as a miss, a
      legacy entry without a sidecar still loads;
    * **bound**: after every write, least-recently-used entries
      anywhere under :attr:`root` — every subdirectory, whichever
      store wrote them — are evicted until the tree's entries plus
      sidecars fit :attr:`max_bytes` (default
      :func:`cache_max_bytes`); the entry just written is shielded.
      Recency is the entry file's mtime, which a hit refreshes —
      coarse, but it survives process restarts without an index file.
    """

    SUBDIR = ""

    def __init__(self, directory: Optional[os.PathLike] = None):
        self.root = (
            pathlib.Path(directory) if directory is not None else cache_directory()
        )
        self.directory = self.root / self.SUBDIR
        self.max_bytes = cache_max_bytes()
        self.stats = CacheStats()

    def path_for(self, key: str) -> pathlib.Path:
        return self.directory / f"{key}.npz"

    def read(self, key: str, load_fn: Callable[[os.PathLike], Any]):
        """Verified load of ``key``; ``None`` when missing or corrupt."""
        path = self.path_for(key)
        if not path.exists():
            return None
        return load_verified(path, self.stats, load_fn)

    def write(
        self, key: str, value: Any, save_fn: Callable[[Any, os.PathLike], Any]
    ) -> None:
        """Atomically store ``value`` under ``key``, then enforce the bound.

        ``save_fn(value, path)`` serializes to ``path`` and returns the
        path it wrote.  An unwritable cache directory is not an error:
        the caller already holds the value.
        """
        path = self.path_for(key)
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            handle, tmp_name = tempfile.mkstemp(
                dir=self.directory, suffix=_TMP_SUFFIX
            )
            os.close(handle)
            try:
                os.replace(save_fn(value, tmp_name), path)
                write_digest_sidecar(path)
            finally:
                if os.path.exists(tmp_name):
                    os.unlink(tmp_name)
            self.stats.stores += 1
        except OSError:
            pass  # read-only cache dir: the value was still produced
        self._enforce_capacity(keep=path)

    def get_or_make(
        self,
        key: str,
        make: Callable[[], Any],
        load_fn: Callable[[os.PathLike], Any],
        save_fn: Callable[[Any, os.PathLike], Any],
    ):
        """Load ``key``, or run ``make`` and store its result."""
        value = self.read(key, load_fn)
        if value is None:
            self.stats.misses += 1
            value = make()
            self.write(key, value, save_fn)
        return value

    @staticmethod
    def _entry_size(path: pathlib.Path) -> Optional[int]:
        """Bytes of an entry plus its sidecar (None when it vanished)."""
        try:
            size = path.stat().st_size
        except OSError:
            return None
        try:
            size += digest_sidecar(path).stat().st_size
        except OSError:
            pass
        return size

    def _enforce_capacity(self, keep: Optional[pathlib.Path] = None) -> None:
        """Evict least-recently-used entries until the tree fits.

        ``keep`` shields the entry just written — evicting it would
        turn the store into a cache that forgets what it was told one
        call ago.
        """
        if self.max_bytes is None:
            return
        entries = []
        for path in _tree_entries(self.root):
            size = self._entry_size(path)
            try:
                mtime = path.stat().st_mtime
            except OSError:
                continue  # evicted by a concurrent writer
            if size is not None:
                entries.append((mtime, str(path), path, size))
        total = sum(size for _, _, _, size in entries)
        for _, _, path, size in sorted(entries):
            if total <= self.max_bytes:
                break
            if path == keep:
                continue
            _evict(path)
            self.stats.capacity_evictions += 1
            total -= size

    def clear(self) -> int:
        """Remove this store's entries (and sidecars); returns entries deleted."""
        removed = 0
        for path in self.directory.glob("*.npz"):
            _evict(path)
            removed += 1
        return removed


class ModelCache(ArtifactStore):
    """Content-addressed on-disk store of trained models.

    ``get_or_train(kind, config, dataset, train_fn, ...)`` returns the
    cached model when a valid entry exists, otherwise runs ``train_fn``
    and stores its result (:class:`ArtifactStore` owns the write, the
    verified read and the bound).  ``max_bytes`` overrides
    :func:`cache_max_bytes`; non-positive means unbounded.
    """

    def __init__(
        self,
        directory: Optional[os.PathLike] = None,
        max_bytes: Optional[int] = None,
    ):
        super().__init__(directory)
        if max_bytes is not None:
            self.max_bytes = max_bytes if max_bytes > 0 else None

    def get_or_train(
        self,
        kind: str,
        config,
        dataset,
        train_fn: Callable[[], Any],
        train_params: Optional[Dict[str, Any]] = None,
        loader: Optional[Callable[[os.PathLike], Any]] = None,
        saver: Optional[Callable[[Any, os.PathLike], Any]] = None,
    ):
        """Memoized training: load on hit, train + store on miss."""
        from .serialization import load_model, save_model

        key = cache_key(kind, config, dataset, train_params)
        return self.get_or_make(
            key, train_fn, loader or load_model, saver or save_model
        )


#: Process-wide cache instance (lazy — respects env overrides made
#: before first use; tests reset it via :func:`reset_default_cache`).
_DEFAULT_CACHE: Optional[ModelCache] = None


def default_cache() -> ModelCache:
    """The process-wide :class:`ModelCache` (created on first use)."""
    global _DEFAULT_CACHE
    if (
        _DEFAULT_CACHE is None
        or _DEFAULT_CACHE.directory != cache_directory()
        or _DEFAULT_CACHE.max_bytes != cache_max_bytes()
    ):
        _DEFAULT_CACHE = ModelCache()
    return _DEFAULT_CACHE


def reset_default_cache() -> None:
    """Drop the process-wide instance (tests / env-var changes)."""
    global _DEFAULT_CACHE
    _DEFAULT_CACHE = None


def cache_stats() -> Dict[str, int]:
    """Counters of the process-wide cache (zeros when unused)."""
    if _DEFAULT_CACHE is None:
        return CacheStats().as_dict()
    return _DEFAULT_CACHE.stats.as_dict()


def cached_train(
    kind: str,
    config,
    dataset,
    train_fn: Callable[[], Any],
    train_params: Optional[Dict[str, Any]] = None,
    **cache_kwargs: Any,
):
    """Train through the process-wide cache (or directly when disabled)."""
    if not cache_enabled():
        return train_fn()
    return default_cache().get_or_train(
        kind, config, dataset, train_fn, train_params=train_params, **cache_kwargs
    )


def _load_bundle(path: os.PathLike) -> Dict[str, np.ndarray]:
    with np.load(path) as payload:
        return {name: payload[name] for name in payload.files}


def _save_bundle(bundle: Dict[str, np.ndarray], path: os.PathLike) -> os.PathLike:
    np.savez(path, **bundle)
    return path


class ArrayBundleCache(ArtifactStore):
    """Content-addressed on-disk store of named NumPy array bundles.

    The design-space sweep (:mod:`repro.hardware.sweep`) memoizes each
    evaluated shard — a dict of equal-length columnar arrays — under a
    SHA-256 key of its exact combo payload, and the plan cache
    (:mod:`repro.ir.plan_cache`) its encoded spike trains.  Entries are
    plain ``.npz`` files in a ``sweeps/`` subdirectory of the cache
    root, so ``REPRO_CACHE_DIR`` / ``REPRO_NO_CACHE`` /
    ``REPRO_CACHE_MAX_BYTES`` govern them with the models.
    """

    SUBDIR = "sweeps"

    def get_or_compute(
        self, key: str, compute: Callable[[], Dict[str, np.ndarray]]
    ) -> Dict[str, np.ndarray]:
        """Load the bundle for ``key``, or compute + store it."""
        return self.get_or_make(key, compute, _load_bundle, _save_bundle)


class ServingSnapshotCache(ArrayBundleCache):
    """Verified pristine copies of the serving pool's shared arrays.

    When :class:`~repro.serve.workers.ShardedPool` publishes its
    shared-memory bundle it snapshots the exact published bytes here,
    keyed by the content digest of the bundle.  The snapshot is what
    the corruption-recovery path restores from: an on-disk copy whose
    integrity sidecar is re-verified at load time, so a DRAM fault in
    the live segment is repaired from bytes that are themselves
    checked — never from another potentially-corrupt RAM copy.  Under
    a size bound a snapshot can be evicted like any entry; recovery
    then restores from the pool's in-memory pristine copy.
    """

    SUBDIR = "serving"

    def store(self, key: str, bundle: Dict[str, np.ndarray]) -> None:
        """Persist a pristine copy under ``key`` (a verified entry is kept)."""
        self.get_or_compute(key, lambda: bundle)

    def load(self, key: str) -> Optional[Dict[str, np.ndarray]]:
        """Sidecar-verified load; ``None`` when missing or corrupt."""
        return self.read(key, _load_bundle)


def verify_cache(
    directory: Optional[os.PathLike] = None, evict: bool = False
) -> Dict[str, Any]:
    """Audit every cache entry against its SHA-256 integrity sidecar.

    Walks every ``.npz`` entry anywhere under the cache root — models,
    ``sweeps/``, ``serving/``, ``live-snapshots/`` and whatever else a
    store keeps there — classifying each as ``verified`` (digest
    matches), ``corrupt`` (mismatch), or ``missing_sidecar`` (legacy
    entry with no digest — tolerated, reported).  With ``evict=True``
    corrupt entries and their sidecars are deleted so the next cache
    access recomputes them.

    Returns a JSON-ready report with stable keys: ``directory``,
    ``checked``, ``verified``, ``corrupt``, ``missing_sidecar``,
    ``evicted``, and ``entries`` (one ``{path, status}`` dict per
    entry, paths relative to the cache root).
    """
    base = pathlib.Path(directory) if directory is not None else cache_directory()
    entries = []
    evicted = 0
    for path in _tree_entries(base):
        verdict = verify_digest_sidecar(path)
        if verdict is True:
            status = "verified"
        elif verdict is None:
            status = "missing_sidecar"
        else:
            status = "corrupt"
        entry = {"path": str(path.relative_to(base)), "status": status}
        if status == "corrupt" and evict:
            _evict(path)
            entry["evicted"] = True
            evicted += 1
        entries.append(entry)
    return {
        "directory": str(base),
        "checked": len(entries),
        "verified": sum(1 for e in entries if e["status"] == "verified"),
        "corrupt": sum(1 for e in entries if e["status"] == "corrupt"),
        "missing_sidecar": sum(
            1 for e in entries if e["status"] == "missing_sidecar"
        ),
        "evicted": evicted,
        "entries": entries,
    }
