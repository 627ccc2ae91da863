"""RunStore: an append-only local index of telemetry runs.

PR 7 gave every CLI an *emit* side — schema-v1 JSONL event logs — but
the files piled up with no index. A :class:`RunStore` turns a directory
into the consume side's substrate::

    store/
      index.jsonl          # one line per ingested run, append-only
      runs/<run_id>.jsonl  # the run's full event log (atomic write)

Every ingest validates the events against schema v1 (the same
:func:`~repro.telemetry.schema.validate_file` contract CI enforces),
extracts the run's single manifest, and derives a :class:`RunRecord`
keyed by the manifest identity — version, command, resolved args, grid
digest — plus a **caller-supplied timestamp** (the store never reads
the clock itself, so tests and replays are deterministic). The index is
append-only: records are never rewritten, ``latest`` is simply the last
appended line, and corrupt index lines read as skips.

Resolution: an explicit ``--run-store DIR`` beats ``$REPRO_RUN_STORE``
beats "no store", uniformly via :func:`resolve_run_store` on all three
CLIs and the service.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

# Resolution lives with the CLI wiring, which decides it without
# importing this module; it is re-exported here for the analyzers.
from .cli import ENV_RUN_STORE, resolve_run_store  # noqa: F401
from .schema import validate_event, validate_file

INDEX_NAME = "index.jsonl"
RUNS_DIR = "runs"


@dataclass(frozen=True)
class RunRecord:
    """One index line: the identity and location of an ingested run."""

    run_id: str
    command: str
    version: str
    version_source: str
    grid_digest: Optional[str]
    timestamp: float
    path: str  # events file, relative to the store root
    events: int  # line count of the stored JSONL

    def to_line(self) -> str:
        return json.dumps(
            {
                "run_id": self.run_id,
                "command": self.command,
                "version": self.version,
                "version_source": self.version_source,
                "grid_digest": self.grid_digest,
                "timestamp": self.timestamp,
                "path": self.path,
                "events": self.events,
            },
            sort_keys=True,
        )

    @classmethod
    def from_line(cls, line: str) -> "RunRecord":
        data = json.loads(line)
        return cls(
            run_id=str(data["run_id"]),
            command=str(data["command"]),
            version=str(data["version"]),
            version_source=str(data.get("version_source", "unknown")),
            grid_digest=data.get("grid_digest"),
            timestamp=float(data["timestamp"]),
            path=str(data["path"]),
            events=int(data["events"]),
        )


def _run_id(manifest: Dict[str, object], timestamp: float) -> str:
    """The run key: sha256 over the manifest identity fields (version,
    command, args, grid digest) plus the caller's timestamp — two runs
    of the same build and arguments at different times are different
    runs, a re-ingest of the same run is the same run (idempotent)."""
    identity = json.dumps(
        {
            "version": manifest.get("version"),
            "command": manifest.get("command"),
            "args": manifest.get("args"),
            "grid_digest": manifest.get("grid_digest"),
            "timestamp": float(timestamp),
        },
        sort_keys=True,
    )
    return hashlib.sha256(identity.encode("utf-8")).hexdigest()[:16]


class RunStore:
    """An append-only directory of validated telemetry runs.

    Construction never touches the filesystem; directories are created
    on first write, so resolving a store (``--run-store`` / env) is
    side-effect free until a run is actually recorded.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root).expanduser()

    @property
    def index_path(self) -> Path:
        return self.root / INDEX_NAME

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def ingest(
        self,
        path: Union[str, Path],
        timestamp: float,
        validate: bool = True,
    ) -> RunRecord:
        """Ingest a ``--telemetry-out`` JSONL file. ``timestamp`` is the
        caller's wall-clock for the run (e.g. ``time.time()``); the
        store records it verbatim."""
        path = Path(path)
        if validate:
            validate_file(path)
        events = [
            json.loads(line)
            for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]
        return self.ingest_events(events, timestamp, validate=False)

    def ingest_events(
        self,
        events: List[Dict[str, object]],
        timestamp: float,
        validate: bool = True,
    ) -> RunRecord:
        """Ingest an in-memory event list (the ``finish_telemetry``
        path, which already holds the run's spans/metrics/manifest and
        need not round-trip through a file)."""
        if validate:
            for event in events:
                validate_event(event)
        manifests = [
            e for e in events if isinstance(e, dict) and e.get("type") == "manifest"
        ]
        if len(manifests) != 1:
            raise ValueError(
                f"a run must carry exactly one manifest event, got {len(manifests)}"
            )
        manifest = manifests[0]
        run_id = _run_id(manifest, timestamp)
        record = RunRecord(
            run_id=run_id,
            command=str(manifest["command"]),
            version=str(manifest["version"]),
            version_source=str(manifest.get("version_source", "unknown")),
            grid_digest=manifest.get("grid_digest"),
            timestamp=float(timestamp),
            path=f"{RUNS_DIR}/{run_id}.jsonl",
            events=len(events),
        )
        # Idempotency is O(1): the events file is written atomically
        # under the run id, so its existence proves a prior ingest of
        # the same run — no index scan, and a lost race at worst
        # duplicates an index line, which records() dedupes.
        known = (self.root / record.path).exists()
        self._write_events(record, events)
        if not known:
            self._append_index(record)
        return record

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def records(self) -> List[RunRecord]:
        """Every index line in append order; corrupt lines are skipped
        (the index is append-only, never rewritten, so a torn write can
        only cost its own line) and duplicate run ids collapse to their
        first line (racing ingests of one run can each append)."""
        if not self.index_path.exists():
            return []
        records: List[RunRecord] = []
        seen: set = set()
        for line in self.index_path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = RunRecord.from_line(line)
            except (ValueError, KeyError, TypeError):
                continue
            if record.run_id in seen:
                continue
            seen.add(record.run_id)
            records.append(record)
        return records

    def latest(self, command: Optional[str] = None) -> Optional[RunRecord]:
        """The most recently appended record (optionally restricted to
        one command), or ``None`` on an empty store."""
        records = self.records()
        if command is not None:
            records = [r for r in records if r.command == command]
        return records[-1] if records else None

    def resolve(self, ref: str) -> RunRecord:
        """A record for a run reference: ``"latest"``,
        ``"latest:<command>"``, or a unique ``run_id`` prefix."""
        if ref == "latest" or ref.startswith("latest:"):
            command = ref.split(":", 1)[1] if ":" in ref else None
            record = self.latest(command=command)
            if record is None:
                raise ValueError(
                    f"run store {self.root} has no runs"
                    + (f" for command {command!r}" if command else "")
                )
            return record
        matches = [r for r in self.records() if r.run_id.startswith(ref)]
        ids = sorted({r.run_id for r in matches})
        if len(ids) == 1:
            return matches[-1]
        hint = f"ambiguous between {ids}" if ids else "no run id matches"
        raise ValueError(f"run reference {ref!r}: {hint}")

    def load(self, record: Union[RunRecord, str]) -> List[Dict[str, object]]:
        """The stored events of a record (or run reference)."""
        if isinstance(record, str):
            record = self.resolve(record)
        path = self.root / record.path
        return [
            json.loads(line)
            for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]

    def __len__(self) -> int:
        return len(self.records())

    def __repr__(self) -> str:
        return f"RunStore({str(self.root)!r}, {len(self)} runs)"

    # ------------------------------------------------------------------
    # Writes (atomic events file, appended index)
    # ------------------------------------------------------------------
    def _write_events(self, record: RunRecord, events: List[Dict[str, object]]) -> None:
        target = self.root / record.path
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, temp_name = tempfile.mkstemp(
            dir=target.parent, prefix=record.run_id, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                for event in events:
                    handle.write(json.dumps(event, allow_nan=False, sort_keys=True))
                    handle.write("\n")
            os.replace(temp_name, target)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise

    def _append_index(self, record: RunRecord) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        with open(self.index_path, "a", encoding="utf-8") as handle:
            handle.write(record.to_line())
            handle.write("\n")


def load_run(
    ref: str, store: Optional[RunStore] = None
) -> tuple:
    """Resolve a run reference to ``(label, events)``: an existing file
    path loads (and validates) directly; anything else — ``latest``,
    ``latest:<command>``, a run-id prefix — needs a store. The shared
    front door of the analyze and compare CLIs."""
    path = Path(ref)
    if path.exists() and path.is_file():
        validate_file(path)
        events = [
            json.loads(line)
            for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]
        return str(path), events
    if store is None:
        raise ValueError(
            f"run reference {ref!r} is not a file and no run store is "
            f"configured (pass --store or set ${ENV_RUN_STORE})"
        )
    record = store.resolve(ref)
    return record.run_id, store.load(record)
