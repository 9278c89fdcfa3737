"""SQLite-backed per-trial results store for fleet experiments.

One row per trial (configuration echo, attempt count, terminal status,
headline campaign metrics) plus one row per out-of-band coverage
measurement (fuzzbench's ``measurer`` shape: corpus snapshots measured
independently of the trial runner). The store is the query surface the
stats layer and the report renderer sit on — nothing downstream touches
:class:`~repro.fuzzer.stats.CampaignResult` objects, so a report can be
regenerated from a store file long after the campaigns are gone.

Since the crash-safety work the store is also the fleet's **source of
truth for progress**: a durable per-trial state machine
(``pending → dispatched → running → measuring → done/lost/quarantined``)
advanced one transaction per transition, with a monotonic attempt
counter that survives dispatcher crashes. ``repro-fuzz fleet --resume``
reads nothing but this store (plus on-disk worker artifacts) to pick a
fleet up exactly where a dead dispatcher left it; see
:mod:`repro.fleet.dispatcher`.

Durability posture: connections run in WAL mode with a busy timeout
(applied on *every* connection, pragmas being per-connection), writes
are transactional, and transient ``database is locked`` / IO errors are
retried a bounded number of times with seeded-jitter backoff — the
jitter stream is a pure function of the store's ``retry_seed``, so two
contending writers deterministically de-synchronize.

Paths: a filesystem path persists across processes (the dispatcher and
CLI default to ``fleet.sqlite`` in the fleet work directory);
``":memory:"`` keeps everything in-process for tests.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.errors import FleetDispatchError, FleetStateError
from ..fuzzer.stats import CampaignResult
from .spec import TrialSpec

#: Trial state-machine states (see module docstring). ``DONE`` and
#: ``LOST`` double as the terminal ``status`` column values of result
#: rows, which predate the state machine.
PENDING = "pending"
DISPATCHED = "dispatched"
RUNNING = "running"
MEASURING = "measuring"
DONE = "done"          # result + measurements recorded
LOST = "lost"          # retry budget exhausted, no result
QUARANTINED = "quarantined"   # budget exhausted on artifact corruption

TRIAL_STATES: Tuple[str, ...] = (
    PENDING, DISPATCHED, RUNNING, MEASURING, DONE, LOST, QUARANTINED)

#: Terminal states: a resumed fleet never re-dispatches these.
TERMINAL_STATES: Tuple[str, ...] = (DONE, LOST, QUARANTINED)

#: The legal transition graph. A transition to the current state is a
#: no-op only where listed (idempotent re-records during resume
#: reconciliation); everything else raises :class:`FleetStateError`.
_ALLOWED: Dict[str, Tuple[str, ...]] = {
    PENDING: (DISPATCHED,),
    DISPATCHED: (RUNNING, MEASURING, PENDING, LOST, QUARANTINED),
    RUNNING: (MEASURING, PENDING, LOST, QUARANTINED),
    MEASURING: (MEASURING, DONE, QUARANTINED),
    DONE: (),
    LOST: (),
    QUARANTINED: (),
}

_SCHEMA = """
CREATE TABLE IF NOT EXISTS trials (
    trial_id     INTEGER PRIMARY KEY,
    benchmark    TEXT    NOT NULL,
    fuzzer       TEXT    NOT NULL,
    map_size     INTEGER NOT NULL,
    replica      INTEGER NOT NULL,
    rng_seed     INTEGER NOT NULL,
    status       TEXT    NOT NULL,
    attempts     INTEGER NOT NULL,
    execs        INTEGER,
    virtual_seconds REAL,
    throughput   REAL,
    edges        INTEGER,
    unique_crashes INTEGER,
    unique_hangs INTEGER,
    corpus_size  INTEGER,
    stopped_by   TEXT,
    coverage_curve TEXT
);
CREATE TABLE IF NOT EXISTS measurements (
    trial_id     INTEGER NOT NULL,
    snapshot     INTEGER NOT NULL,
    virtual_seconds REAL NOT NULL,
    corpus_size  INTEGER NOT NULL,
    true_edges   INTEGER NOT NULL,
    lag_seconds  REAL    NOT NULL,
    PRIMARY KEY (trial_id, snapshot)
);
CREATE TABLE IF NOT EXISTS trial_state (
    trial_id     INTEGER PRIMARY KEY,
    state        TEXT    NOT NULL,
    attempt      INTEGER NOT NULL,
    seq          INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS fleet_meta (
    key          TEXT PRIMARY KEY,
    value        TEXT NOT NULL
);
"""

#: trials columns holding per-trial outcome metrics that
#: :meth:`ResultsStore.sample` may select, mapped to a short
#: description (kept explicit: ``sample`` interpolates the column name
#: into SQL, so only names from this table are accepted).
METRIC_COLUMNS: Dict[str, str] = {
    "execs": "test cases executed",
    "virtual_seconds": "virtual campaign duration",
    "throughput": "executions per virtual second",
    "edges": "distinct map locations discovered",
    "unique_crashes": "crashwalk-deduplicated crashes",
    "unique_hangs": "deduplicated hangs",
    "corpus_size": "final queue length",
}


class ResultsStore:
    """Queryable fleet results + durable trial state machine.

    Args:
        path: SQLite database path, or ``":memory:"``.
        busy_timeout: milliseconds SQLite itself blocks on a locked
            database before surfacing ``database is locked`` (per
            connection; WAL keeps readers and one writer concurrent).
        max_io_attempts: bounded retry budget per store operation for
            transient lock/IO errors.
        retry_seed: seed of the jitter stream backing those retries
            (the backoff schedule is a pure function of it).
        mode: ``"rw"`` (default) or ``"ro"``. Read-only stores open
            the database with a ``file:...?mode=ro`` URI plus
            ``PRAGMA query_only = ON``, never run the schema script,
            and refuse every write API up front — so a live API
            server can poll a store a dispatcher is writing without
            ever competing for the WAL write lock.
    """

    #: Connection modes.
    RW = "rw"
    RO = "ro"

    #: Base / cap of the retry backoff, seconds (exponential + jitter).
    RETRY_BASE = 0.01
    RETRY_CAP = 0.25

    def __init__(self, path: str = ":memory:", *,
                 busy_timeout: int = 5000,
                 max_io_attempts: int = 5,
                 retry_seed: int = 0,
                 mode: str = RW) -> None:
        if mode not in (self.RW, self.RO):
            raise ValueError(f"unknown store mode {mode!r}; "
                             f"use {self.RW!r} or {self.RO!r}")
        if mode == self.RO and path == ":memory:":
            raise ValueError("a read-only store needs a database file "
                             "(an in-memory store would always be "
                             "empty)")
        self.path = path
        self.mode = mode
        self.busy_timeout = busy_timeout
        self.max_io_attempts = max_io_attempts
        self.write_retries = 0
        #: Optional ``fn(op, attempt, error)`` called before each retry
        #: (the dispatcher wires this to ``store_retry`` telemetry).
        self.on_retry: Optional[Callable[[str, int, str], None]] = None
        self._injected_io_faults = 0
        self._retry_rng = np.random.default_rng(retry_seed)
        if path != ":memory:" and mode == self.RW:
            parent = os.path.dirname(os.path.abspath(path))
            os.makedirs(parent, exist_ok=True)
        self._conn: Optional[sqlite3.Connection] = self._connect()
        if mode == self.RW:
            self._transact(
                "schema", lambda conn: conn.executescript(_SCHEMA))

    # -- connection lifecycle ------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        """Open a connection with the durability pragmas applied.

        Pragmas are per-connection state in SQLite (``journal_mode``
        persists in the file for WAL, but ``busy_timeout`` and
        ``synchronous`` do not), so every connection — creation,
        reconnect, concurrent process — must come through here.
        A read-only store connects through a ``mode=ro`` URI and pins
        ``query_only`` so even a stray write statement cannot take
        the WAL write lock.
        """
        if self.mode == self.RO:
            uri = f"file:{os.path.abspath(self.path)}?mode=ro"
            conn = sqlite3.connect(uri, uri=True,
                                   timeout=self.busy_timeout / 1000.0)
            conn.execute(
                f"PRAGMA busy_timeout = {int(self.busy_timeout)}")
            conn.execute("PRAGMA query_only = ON")
            return conn
        conn = sqlite3.connect(self.path,
                               timeout=self.busy_timeout / 1000.0)
        conn.execute(f"PRAGMA busy_timeout = {int(self.busy_timeout)}")
        conn.execute("PRAGMA journal_mode = WAL")
        conn.execute("PRAGMA synchronous = NORMAL")
        return conn

    def _require_writable(self, op: str) -> None:
        if self.mode == self.RO:
            raise FleetStateError(
                f"store operation {op!r} on a read-only "
                f"(mode='ro') store {self.path!r}")

    @property
    def closed(self) -> bool:
        return self._conn is None

    def close(self) -> None:
        """Close the connection (idempotent)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def reconnect(self) -> None:
        """Drop and reopen the connection (pragmas reapplied)."""
        self.close()
        self._conn = self._connect()

    def __enter__(self) -> "ResultsStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- transactional execution with bounded retry --------------------

    def inject_io_faults(self, count: int) -> None:
        """Arm ``count`` injected transient IO failures (chaos/testing):
        the next ``count`` store operations raise ``database is
        locked`` once each before executing, exercising the seeded
        retry path deterministically."""
        self._injected_io_faults = count

    def _transact(self, op: str, fn):
        """Run ``fn(conn)`` as one transaction, retrying transient
        ``sqlite3.OperationalError`` with seeded-jitter backoff."""
        if self._conn is None:
            raise FleetDispatchError(
                f"results store used after close() (operation {op!r})")
        last: Optional[BaseException] = None
        for attempt in range(self.max_io_attempts):
            if attempt:
                self.write_retries += 1
                if self.on_retry is not None:
                    self.on_retry(op, attempt, repr(last))
                jitter = 0.5 + float(self._retry_rng.random())
                delay = self.RETRY_BASE * (2.0 ** (attempt - 1)) * jitter
                time.sleep(min(delay, self.RETRY_CAP))
            try:
                if self._injected_io_faults > 0:
                    self._injected_io_faults -= 1
                    raise sqlite3.OperationalError(
                        "database is locked (injected)")
                with self._conn:  # one transaction per operation
                    return fn(self._conn)
            except sqlite3.OperationalError as exc:
                last = exc
        raise FleetDispatchError(
            f"results-store operation {op!r} failed after "
            f"{self.max_io_attempts} attempts: {last!r}") from last

    # -- trial state machine -------------------------------------------

    def init_states(self, trial_ids: Sequence[int]) -> None:
        """Ensure every trial has a state row (``pending``, attempt 0).

        Idempotent: existing rows — a resumed fleet's progress — are
        left untouched.
        """
        self._require_writable("init_states")
        rows = [(int(trial_id), PENDING, 0, 0) for trial_id in trial_ids]
        self._transact("init_states", lambda conn: conn.executemany(
            "INSERT OR IGNORE INTO trial_state VALUES (?, ?, ?, ?)",
            rows))

    def trial_state(self, trial_id: int) -> Tuple[str, int]:
        """(state, attempt) of one trial; a trial without a state row
        reads as ``(pending, 0)``."""
        row = self._transact("trial_state", lambda conn: conn.execute(
            "SELECT state, attempt FROM trial_state WHERE trial_id = ?",
            (trial_id,)).fetchone())
        if row is None:
            return PENDING, 0
        return str(row[0]), int(row[1])

    def trial_states(self) -> Dict[int, Tuple[str, int]]:
        """All trial states, keyed by trial id."""
        rows = self._transact("trial_states", lambda conn: conn.execute(
            "SELECT trial_id, state, attempt FROM trial_state "
            "ORDER BY trial_id").fetchall())
        return {int(tid): (str(state), int(attempt))
                for tid, state, attempt in rows}

    def state_counts(self) -> Dict[str, int]:
        """How many trials sit in each state (states present only)."""
        rows = self._transact("state_counts", lambda conn: conn.execute(
            "SELECT state, COUNT(*) FROM trial_state GROUP BY state "
            "ORDER BY state").fetchall())
        return {str(state): int(count) for state, count in rows}

    def _transition_in(self, conn: sqlite3.Connection, trial_id: int,
                       to_state: str) -> Tuple[str, int]:
        """Advance one trial's state inside an open transaction."""
        row = conn.execute(
            "SELECT state, attempt, seq FROM trial_state "
            "WHERE trial_id = ?", (trial_id,)).fetchone()
        if row is None:
            raise FleetStateError(
                f"trial {trial_id} has no state row; call "
                f"init_states() before transitioning")
        current, attempt, seq = str(row[0]), int(row[1]), int(row[2])
        if to_state not in _ALLOWED.get(current, ()):
            raise FleetStateError(
                f"illegal trial {trial_id} transition "
                f"{current!r} -> {to_state!r}")
        if to_state == current:   # idempotent re-record
            return current, attempt
        if to_state == DISPATCHED:
            attempt += 1          # monotonic, survives crashes
        conn.execute(
            "UPDATE trial_state SET state = ?, attempt = ?, seq = ? "
            "WHERE trial_id = ?",
            (to_state, attempt, seq + 1, trial_id))
        return to_state, attempt

    def transition(self, trial_id: int, to_state: str) -> int:
        """Advance one trial's state (one transaction); returns the
        trial's monotonic attempt counter.

        ``pending → dispatched`` increments the attempt counter — it is
        the durable record that a dispatch *was intended*, written
        before the backend sees the request, so a dispatcher crash
        between bookkeeping and submit can never under-count attempts.
        """
        self._require_writable(f"transition:{to_state}")
        if to_state not in TRIAL_STATES:
            raise FleetStateError(f"unknown trial state {to_state!r}")
        _, attempt = self._transact(
            f"transition:{to_state}",
            lambda conn: self._transition_in(conn, trial_id, to_state))
        return attempt

    def force_state(self, trial_id: int, to_state: str) -> None:
        """Force one trial's state row to ``to_state``, graph be damned.

        The escape hatch for out-of-band store users (manual repair,
        reconciliation tooling): validates the state *name* but not the
        edge, and still bumps ``seq`` so readers observe a change.
        Normal code paths must use :meth:`transition`. Both reject an
        unknown state name at runtime.
        """
        self._require_writable(f"force_state:{to_state}")
        if to_state not in TRIAL_STATES:
            raise FleetStateError(f"unknown trial state {to_state!r}")
        self._transact(
            f"force_state:{to_state}",
            lambda conn: self._force_in(conn, trial_id, to_state))

    def _force_in(self, conn: sqlite3.Connection, trial_id: int,
                  to_state: str) -> None:
        row = conn.execute(
            "SELECT seq FROM trial_state WHERE trial_id = ?",
            (trial_id,)).fetchone()
        if row is None:
            return   # pre-state-machine caller: nothing to keep in sync
        conn.execute(
            "UPDATE trial_state SET state = ?, seq = ? "
            "WHERE trial_id = ?", (to_state, int(row[0]) + 1, trial_id))

    def _record_state(self, conn: sqlite3.Connection, trial_id: int,
                      to_state: str) -> None:
        """State-row update for the ``record_*`` writers.

        ``record_trial`` / ``record_lost`` overwrite the authoritative
        trials row unconditionally (``INSERT OR REPLACE`` — they are
        the idempotent landing APIs), so the state row must follow even
        when the strict transition graph would refuse: a direct-API
        re-record force-sets the state rather than leave the two
        disagreeing. Dispatcher code paths always arrive here via legal
        transitions; only out-of-band store users hit the force path.
        """
        row = conn.execute(
            "SELECT state FROM trial_state "
            "WHERE trial_id = ?", (trial_id,)).fetchone()
        if row is None:
            return   # pre-state-machine caller: nothing to keep in sync
        current = str(row[0])
        if to_state == current or to_state in _ALLOWED.get(current, ()):
            self._transition_in(conn, trial_id, to_state)
        else:
            self._force_in(conn, trial_id, to_state)

    # -- fleet metadata ------------------------------------------------

    def set_meta(self, key: str, value: str) -> None:
        self._require_writable("set_meta")
        self._transact("set_meta", lambda conn: conn.execute(
            "INSERT OR REPLACE INTO fleet_meta VALUES (?, ?)",
            (key, str(value))))

    def get_meta(self, key: str) -> Optional[str]:
        row = self._transact("get_meta", lambda conn: conn.execute(
            "SELECT value FROM fleet_meta WHERE key = ?",
            (key,)).fetchone())
        return None if row is None else str(row[0])

    # -- writing -------------------------------------------------------

    def record_trial(self, trial: TrialSpec, result: CampaignResult,
                     attempts: int) -> None:
        """Land one completed trial's row (idempotent per trial id).

        When the trial has a state row, the same transaction advances
        it to ``measuring`` — the row and the state can never disagree
        on whether a result landed.
        """
        self._require_writable("record_trial")
        curve = json.dumps(
            [[t, int(edges)] for t, edges in result.coverage_curve])

        def write(conn: sqlite3.Connection) -> None:
            conn.execute(
                "INSERT OR REPLACE INTO trials VALUES "
                "(?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (trial.trial_id, trial.benchmark, trial.fuzzer,
                 trial.map_size, trial.replica, trial.rng_seed, DONE,
                 attempts, result.execs, result.virtual_seconds,
                 result.throughput, result.discovered_locations,
                 result.unique_crashes, result.unique_hangs,
                 result.corpus_size, result.stopped_by, curve))
            self._record_state(conn, trial.trial_id, MEASURING)

        self._transact("record_trial", write)

    def record_lost(self, trial: TrialSpec, attempts: int,
                    quarantined: bool = False) -> None:
        """Land a trial whose retry budget ran out without a result.

        ``quarantined=True`` marks budgets exhausted *on artifact
        corruption* — the trial is terminal either way, but reports
        distinguish "never finished" from "finished but untrustworthy".
        """
        self._require_writable("record_lost")
        state = QUARANTINED if quarantined else LOST

        def write(conn: sqlite3.Connection) -> None:
            conn.execute(
                "INSERT OR REPLACE INTO trials (trial_id, benchmark, "
                "fuzzer, map_size, replica, rng_seed, status, attempts) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (trial.trial_id, trial.benchmark, trial.fuzzer,
                 trial.map_size, trial.replica, trial.rng_seed, state,
                 attempts))
            self._record_state(conn, trial.trial_id, state)

        self._transact("record_lost", write)

    def record_measurement(self, trial_id: int, snapshot: int,
                           virtual_seconds: float, corpus_size: int,
                           true_edges: int, lag_seconds: float) -> None:
        self._require_writable("record_measurement")
        self._transact("record_measurement", lambda conn: conn.execute(
            "INSERT OR REPLACE INTO measurements VALUES "
            "(?, ?, ?, ?, ?, ?)",
            (trial_id, snapshot, virtual_seconds, corpus_size,
             true_edges, lag_seconds)))

    # -- querying ------------------------------------------------------

    def trial_rows(self, *, benchmark: Optional[str] = None,
                   fuzzer: Optional[str] = None,
                   map_size: Optional[int] = None,
                   status: Optional[str] = None) -> List[sqlite3.Row]:
        """Trial rows matching the filters, ordered by trial id."""
        clauses, params = [], []
        for column, value in (("benchmark", benchmark),
                              ("fuzzer", fuzzer),
                              ("map_size", map_size),
                              ("status", status)):
            if value is not None:
                clauses.append(f"{column} = ?")
                params.append(value)
        where = (" WHERE " + " AND ".join(clauses)) if clauses else ""

        def read(conn: sqlite3.Connection) -> List[sqlite3.Row]:
            conn.row_factory = sqlite3.Row
            try:
                return conn.execute(
                    f"SELECT * FROM trials{where} ORDER BY trial_id",
                    params).fetchall()
            finally:
                conn.row_factory = None

        return self._transact("trial_rows", read)

    def sample(self, metric: str, *, benchmark: str, fuzzer: str,
               map_size: int) -> List[float]:
        """One cell's per-trial values of ``metric``, replica-ordered —
        the shape the stats layer consumes."""
        if metric not in METRIC_COLUMNS:
            raise ValueError(
                f"unknown metric {metric!r}; known: "
                f"{', '.join(sorted(METRIC_COLUMNS))}")
        rows = self._transact("sample", lambda conn: conn.execute(
            f"SELECT {metric} FROM trials WHERE benchmark = ? AND "
            f"fuzzer = ? AND map_size = ? AND status = ? "
            f"ORDER BY replica",
            (benchmark, fuzzer, map_size, DONE)).fetchall())
        return [float(value) for (value,) in rows]

    def groups(self) -> List[Tuple[str, int]]:
        """Distinct (benchmark, map_size) comparison groups, sorted."""
        rows = self._transact("groups", lambda conn: conn.execute(
            "SELECT DISTINCT benchmark, map_size FROM trials "
            "ORDER BY benchmark, map_size").fetchall())
        return [(benchmark, int(size)) for benchmark, size in rows]

    def fuzzers(self) -> List[str]:
        """Distinct fuzzers present, sorted."""
        rows = self._transact("fuzzers", lambda conn: conn.execute(
            "SELECT DISTINCT fuzzer FROM trials ORDER BY fuzzer"
        ).fetchall())
        return [fuzzer for (fuzzer,) in rows]

    def attempts(self, trial_id: int) -> int:
        row = self._transact("attempts", lambda conn: conn.execute(
            "SELECT attempts FROM trials WHERE trial_id = ?",
            (trial_id,)).fetchone())
        return 0 if row is None else int(row[0])

    def lost_trials(self) -> List[int]:
        """Terminal trials without a result (lost + quarantined)."""
        rows = self._transact("lost_trials", lambda conn: conn.execute(
            "SELECT trial_id FROM trials WHERE status IN (?, ?) "
            "ORDER BY trial_id", (LOST, QUARANTINED)).fetchall())
        return [int(trial_id) for (trial_id,) in rows]

    def coverage_curve(self, trial_id: int) -> List[Tuple[float, int]]:
        row = self._transact("coverage_curve", lambda conn: conn.execute(
            "SELECT coverage_curve FROM trials WHERE trial_id = ?",
            (trial_id,)).fetchone())
        if row is None or row[0] is None:
            return []
        return [(float(t), int(edges)) for t, edges in json.loads(row[0])]

    def measurements(self, trial_id: int) -> List[sqlite3.Row]:
        def read(conn: sqlite3.Connection) -> List[sqlite3.Row]:
            conn.row_factory = sqlite3.Row
            try:
                return conn.execute(
                    "SELECT * FROM measurements WHERE trial_id = ? "
                    "ORDER BY snapshot", (trial_id,)).fetchall()
            finally:
                conn.row_factory = None

        return self._transact("measurements", read)

    def n_trials(self) -> int:
        (count,) = self._transact("n_trials", lambda conn: conn.execute(
            "SELECT COUNT(*) FROM trials").fetchone())
        return int(count)
