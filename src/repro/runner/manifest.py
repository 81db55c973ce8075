"""Run manifests and JSONL episode-metrics streams.

Every runner invocation that is given an output directory leaves two
artifacts behind:

* ``manifest.json`` — what ran (protocol, dataset, seeds, git SHA,
  per-task status/timings, outcome).  The deterministic subset of the
  manifest — everything except wall-clock — is hashed into a
  ``fingerprint`` so "same batch, different worker count" is checkable
  with a string comparison.
* ``episodes.jsonl`` — one line per training episode across all tasks,
  the observability stream for convergence tooling.

Manifests double as resume tokens: ``rl-planner resume <dir>`` reads the
manifest back to find the dataset, config fingerprint, and progress.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import pathlib
import subprocess
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Union

from ..core.exceptions import ArtifactError
from ..obs import get_registry, write_metrics

logger = logging.getLogger(__name__)

PathLike = Union[str, pathlib.Path]

MANIFEST_NAME = "manifest.json"
EPISODES_NAME = "episodes.jsonl"
MANIFEST_SCHEMA = 1

#: Keys excluded from the fingerprint: wall-clock measurements plus
#: fields that legitimately differ between runs that should compare
#: equal (worker count, checkout SHA, retry counts, bulky stats).
_NONDETERMINISTIC_KEYS = frozenset(
    {
        "seconds",
        "learn_seconds",
        "recommend_seconds",
        "elapsed_seconds",
        "wall_seconds",
        "created_at",
        "updated_at",
        "git_sha",
        "workers",
        "episode_stats",
        "attempts",
    }
)


def git_sha() -> Optional[str]:
    """The current repo HEAD, or None outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def atomic_write_text(path: PathLike, text: str) -> pathlib.Path:
    """Write ``text`` durably: tmp file + flush + fsync + atomic rename.

    The rename guarantees readers never see a half-written file; the
    fsync guarantees a crash immediately *after* the rename cannot lose
    the buffered bytes either.
    """
    target = pathlib.Path(path)
    tmp = target.with_name(target.name + ".tmp")
    with tmp.open("w") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    tmp.replace(target)
    return target


def _strip_timing(value: Any) -> Any:
    if isinstance(value, dict):
        return {
            k: _strip_timing(v)
            for k, v in value.items()
            if k not in _NONDETERMINISTIC_KEYS
        }
    if isinstance(value, list):
        return [_strip_timing(v) for v in value]
    return value


def canonical_sha256(payload: Any) -> str:
    """SHA-256 over the canonical (sorted-key, compact) JSON of a payload."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def fingerprint_payload(payload: Dict[str, Any]) -> str:
    """SHA-256 over the deterministic subset of a manifest payload."""
    return canonical_sha256(_strip_timing(payload))


@dataclass
class RunManifest:
    """Everything needed to audit — or resume — one runner invocation."""

    protocol: str
    dataset: str
    dataset_seed: int
    root_seed: Optional[int] = None
    workers: int = 1
    status: str = "running"
    git_sha: Optional[str] = field(default_factory=git_sha)
    config_fingerprint: Optional[str] = None
    target_episodes: Optional[int] = None
    completed_episodes: int = 0
    checkpoint_every: Optional[int] = None
    start_item: Optional[str] = None
    tasks: List[Dict[str, Any]] = field(default_factory=list)
    result: Optional[Dict[str, Any]] = None
    wall_seconds: float = 0.0
    created_at: float = field(default_factory=time.time)
    updated_at: float = field(default_factory=time.time)
    schema: int = MANIFEST_SCHEMA

    def to_dict(self) -> Dict[str, Any]:
        payload = asdict(self)
        payload["fingerprint"] = fingerprint_payload(payload)
        return payload

    def save(self, run_dir: PathLike) -> pathlib.Path:
        """Write ``manifest.json`` atomically (and fsynced) into ``run_dir``."""
        self.updated_at = time.time()
        run_dir = pathlib.Path(run_dir)
        run_dir.mkdir(parents=True, exist_ok=True)
        return atomic_write_text(
            run_dir / MANIFEST_NAME,
            json.dumps(self.to_dict(), indent=2, sort_keys=True),
        )

    @classmethod
    def load(cls, run_dir: PathLike) -> "RunManifest":
        """Read a run directory's manifest back.

        A missing or corrupt ``manifest.json`` raises
        :class:`~repro.core.exceptions.ArtifactError` — the typed,
        catchable signal that the *artifact* is bad, consistent with
        ``read_policy_file`` — never a raw ``JSONDecodeError``.
        """
        path = pathlib.Path(run_dir) / MANIFEST_NAME
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            # ValueError covers both JSONDecodeError and the
            # UnicodeDecodeError bit-rotted bytes produce.
            raise ArtifactError(
                f"cannot read run manifest {path}: {exc}"
            ) from exc
        if not isinstance(data, dict):
            raise ArtifactError(
                f"malformed run manifest {path}: not a JSON object"
            )
        data.pop("fingerprint", None)
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in known})

    @property
    def fingerprint(self) -> str:
        """Deterministic identity of this run (timing-independent)."""
        return fingerprint_payload(asdict(self))


class EpisodeMetricsWriter:
    """Append-only JSONL stream of per-episode training metrics.

    Each line is flushed immediately, so a crash loses at most the
    episode in flight — the stream stays a valid prefix.
    """

    def __init__(self, path: PathLike, append: bool = False) -> None:
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = self.path.open("a" if append else "w")

    def write(self, row: Dict[str, Any]) -> None:
        self._handle.write(json.dumps(row, sort_keys=True) + "\n")
        self._handle.flush()

    def close(self) -> None:
        """Flush *and* fsync before closing.

        Flushing alone hands the rows to the OS; a machine crash right
        after a run could still lose them from the page cache.  The
        fsync pins every episode row written so far to disk.
        """
        if self._handle.closed:
            return
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._handle.close()

    def __enter__(self) -> "EpisodeMetricsWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def tolerant_stream_rows(path: PathLike) -> List[Dict[str, Any]]:
    """Parse an ``episodes.jsonl`` stream, tolerating a crash-torn tail.

    The writer appends one line per episode; a kill mid-append leaves a
    final line that is truncated JSON.  Parsing stops (with a logged
    warning) at the first undecodable line — everything before it is a
    valid prefix, everything at/after it is the torn tail a crash left
    behind.  A missing file is an empty stream.
    """
    path = pathlib.Path(path)
    if not path.exists():
        return []
    rows: List[Dict[str, Any]] = []
    lines = path.read_text().splitlines()
    for lineno, line in enumerate(lines):
        try:
            rows.append(json.loads(line))
        except json.JSONDecodeError:
            logger.warning(
                "%s: torn/corrupt line %d; truncating %d trailing "
                "line(s) (valid prefix of %d row(s) kept)",
                path, lineno + 1, len(lines) - lineno, len(rows),
            )
            break
    return rows


def write_batch_artifacts(
    run_dir: PathLike,
    manifest: RunManifest,
    task_results,
) -> None:
    """Persist a batch's manifest plus the episode-metrics stream.

    ``task_results`` are :class:`repro.runner.pool.TaskResult` objects;
    any ``episode_stats`` collected by workers are folded into one
    ``episodes.jsonl`` keyed by task, then dropped from the manifest
    copy (the manifest stays small and timing-free values stay in the
    JSONL stream).  When observability is enabled the active registry
    is additionally exported as ``metrics.json`` next to the manifest.
    """
    run_dir = pathlib.Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    with EpisodeMetricsWriter(run_dir / EPISODES_NAME) as stream:
        for result in task_results:
            stats = (
                (result.value or {}).get("episode_stats")
                if isinstance(result.value, dict)
                else None
            )
            for row in stats or ():
                stream.write({"task": result.key, **row})
    manifest.tasks = [
        {
            "key": r.key,
            "index": r.index,
            "status": r.status,
            "attempts": r.attempts,
            "seconds": r.seconds,
            "error": r.error,
            "value": _strip_stats(r.value),
        }
        for r in task_results
    ]
    manifest.save(run_dir)
    write_metrics(run_dir, get_registry())


def _strip_stats(value: Any) -> Any:
    if isinstance(value, dict) and "episode_stats" in value:
        return {k: v for k, v in value.items() if k != "episode_stats"}
    return value
