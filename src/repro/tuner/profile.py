"""Persisted tuning profiles: the tuner's **decision cache**.

A profile maps ``(instance, machine, cores)`` to the tuning decision the
autotuner reached, together with the matrix features the decision was
computed from.  Re-running the tuner with a profile skips the racing
stage for every entry whose features still match (warm start); a matrix
that changed structure under the same name misses the feature check and
is re-tuned rather than served a stale decision.

Since format **v3** profiles are a *thin* decision cache: raw training
observations live in the fleet-wide
:class:`~repro.store.ObservationStore` (``repro tune --store``, or the
profile's ``<path>.store`` sidecar directory on the CLI), keeping
warm-start decisions, raw observations and model training in separate
layers.  The in-memory ``observations`` list survives as the
**legacy inline store** for API callers without a store — v2 files
(PR 4, where profiles doubled as the training store) load their inline
observations into it, and the CLI migrates them into the store on the
next run; :meth:`TuningProfile.take_observations` is the migration
hook.  Warm starts append nothing — only actually simulated or measured
seconds enter any store, never the learned model's own predictions.

The file format is versioned: v1 (PR 3, decisions only) and v2 files
load unchanged and are upgraded on the next save; files from an
*unknown* version raise :class:`~repro.errors.ConfigurationError`
instead of silently misinterpreting fields.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.tuner.features import MatrixFeatures
from repro.utils.atomic import atomic_write_json, read_json_object

__all__ = [
    "MAX_OBSERVATIONS",
    "PROFILE_VERSION",
    "SUPPORTED_PROFILE_VERSIONS",
    "TuningProfile",
    "entry_key",
    "load_profile",
    "save_profile",
]

_log = logging.getLogger(__name__)

#: Format version of persisted profiles; bump on incompatible changes.
PROFILE_VERSION = 3

#: Versions :func:`load_profile` understands.  v1 (PR 3, decisions
#: only) and v2 (PR 4, inline observation list) migrate in place:
#: entries load unchanged, v2 observations land in the legacy in-memory
#: list ready for store migration.
SUPPORTED_PROFILE_VERSIONS = (1, 2, 3)

#: Bound on the legacy inline observation list; the oldest records are
#: dropped first.  The fleet-wide :class:`~repro.store.ObservationStore`
#: replaces this FIFO truncation with coverage-aware pruning — the
#: bound only governs profiles used without a store.
MAX_OBSERVATIONS = 50_000


def entry_key(instance: str, machine: str, n_cores: int) -> str:
    """The profile key of one (instance, machine, cores) decision.

    Examples
    --------
    >>> from repro.tuner import entry_key
    >>> entry_key("torso3", "intel_xeon_6238t", 8)
    'torso3::intel_xeon_6238t::8'
    """
    return f"{instance}::{machine}::{int(n_cores)}"


@dataclass
class TuningProfile:
    """An in-memory tuning profile (see the module docstring).

    ``entries`` maps :func:`entry_key` strings to plain-dict decision
    records (the :meth:`~repro.tuner.auto.TuningDecision.as_dict` form,
    including the ``features`` sub-dict used for warm-start validation).
    ``observations`` is the legacy inline training store: a list of
    plain-dict ``(features, scheduler, seconds)`` records used when no
    :class:`~repro.store.ObservationStore` is attached, and the staging
    area v2 files migrate from.

    Examples
    --------
    >>> from repro.tuner import TuningProfile
    >>> profile = TuningProfile(machine="intel_xeon_6238t")
    >>> (len(profile), profile.n_observations)
    (0, 0)
    """

    machine: str = ""
    version: int = PROFILE_VERSION
    entries: dict[str, dict] = field(default_factory=dict)
    observations: list[dict] = field(default_factory=list)

    def lookup(
        self, key: str, features: MatrixFeatures
    ) -> dict | None:
        """The stored decision for ``key`` if its features still match,
        else ``None`` (missing entry or structure drift)."""
        entry = self.entries.get(key)
        if entry is None:
            return None
        try:
            stored = MatrixFeatures.from_dict(entry["features"])
        except (KeyError, TypeError):
            return None
        if not features.matches(stored):
            return None
        return entry

    def record(self, key: str, decision: dict) -> None:
        """Insert or replace the decision stored under ``key``."""
        self.entries[key] = decision

    def add_observation(
        self,
        features: MatrixFeatures,
        scheduler: str,
        seconds: float,
        *,
        scheduling_seconds: float = 0.0,
        n_cores: int = 0,
        mode: str = "",
        reordered: bool = False,
        machine: str = "",
        source: str = "",
    ) -> int:
        """Append one training record to the inline observation list.

        ``seconds`` is the per-solve time of ``scheduler`` on a matrix
        with ``features`` — cost-model simulated or wall-clock measured
        (``mode`` records which); ``reordered`` is the effective
        Section 5 reorder flag the seconds were obtained under (the
        learned prior keeps the two variants apart); ``machine`` and
        ``source`` carry provenance for store migration.  The list is
        bounded at :data:`MAX_OBSERVATIONS`; returns how many old
        records were dropped to stay under the bound (``0`` almost
        always — a non-zero return means training data is being lost
        and the caller should move to an
        :class:`~repro.store.ObservationStore`, which prunes by
        coverage instead).
        """
        # records share the store's canonical shape (one builder, so
        # migrated profile records hash identically to records the
        # store wrote itself and ingest-dedup stays idempotent); the
        # import is deferred because the store package sits above the
        # tuner layer
        from repro.store.store import build_record

        self.observations.append(build_record(
            features, scheduler, seconds,
            scheduling_seconds=scheduling_seconds,
            n_cores=n_cores, mode=mode, reordered=reordered,
            machine=machine, source=source,
        ))
        dropped = len(self.observations) - MAX_OBSERVATIONS
        if dropped > 0:
            del self.observations[:dropped]
            _log.warning(
                "tuning profile dropped %d oldest observation(s) past "
                "the %d-record bound; use an ObservationStore for "
                "coverage-aware pruning instead",
                dropped, MAX_OBSERVATIONS,
            )
            return dropped
        return 0

    def take_observations(self) -> list[dict]:
        """Drain the inline observation list (store-migration hook).

        Returns the records and empties the list, so saving the profile
        afterwards writes a thin v3 decision cache — the caller is
        responsible for handing the records to an
        :class:`~repro.store.ObservationStore` (the CLI ingests them
        with content dedup, so repeated migrations are idempotent).
        """
        records, self.observations = self.observations, []
        return records

    @property
    def n_observations(self) -> int:
        """Training records currently in the inline list."""
        return len(self.observations)

    def __len__(self) -> int:
        return len(self.entries)

    def as_dict(self) -> dict:
        data = {
            "version": PROFILE_VERSION,
            "machine": self.machine,
            "entries": self.entries,
        }
        # v3 is a thin decision cache: the inline observation list only
        # round-trips while it is non-empty (legacy callers without a
        # store), so accumulated data is never silently dropped
        if self.observations:
            data["observations"] = self.observations
        return data


def save_profile(profile: TuningProfile, path: str | os.PathLike) -> None:
    """Write ``profile`` as JSON (stable key order, human-diffable).

    Always writes the current :data:`PROFILE_VERSION` — saving a
    profile loaded from a v1/v2 file upgrades it in place.  The write
    is atomic (temp file + rename, :mod:`repro.utils.atomic`): a crash
    or concurrent suite worker never leaves a torn file, and the
    previous good profile survives any failure.

    Examples
    --------
    >>> import tempfile, os.path
    >>> from repro.tuner import TuningProfile, load_profile, save_profile
    >>> with tempfile.TemporaryDirectory() as tmp:
    ...     path = os.path.join(tmp, "profile.json")
    ...     save_profile(TuningProfile(machine="m"), path)
    ...     load_profile(path).machine
    'm'
    """
    atomic_write_json(profile.as_dict(), path)


def load_profile(path: str | os.PathLike) -> TuningProfile:
    """Load a profile written by :func:`save_profile`.

    Understands every version in :data:`SUPPORTED_PROFILE_VERSIONS`
    (v1 files load with an empty observation list, v2 inline
    observations land in the legacy list for store migration).  Raises
    :class:`~repro.errors.ConfigurationError` on an unknown version or
    a structurally invalid file.
    """
    data = read_json_object(path, ConfigurationError, "tuning profile")
    if "version" not in data:
        raise ConfigurationError(
            f"tuning profile {path!s} has no version field"
        )
    if data["version"] not in SUPPORTED_PROFILE_VERSIONS:
        raise ConfigurationError(
            f"tuning profile {path!s} has version {data['version']!r}; "
            f"this build reads versions {SUPPORTED_PROFILE_VERSIONS}"
        )
    entries = data.get("entries", {})
    if not isinstance(entries, dict):
        raise ConfigurationError(
            f"tuning profile {path!s}: entries must be an object"
        )
    observations = data.get("observations", [])
    if not isinstance(observations, list):
        raise ConfigurationError(
            f"tuning profile {path!s}: observations must be an array"
        )
    return TuningProfile(
        machine=str(data.get("machine", "")),
        # the version the *file* was written with (observable by
        # callers); save_profile always writes the current version
        version=int(data["version"]),
        entries=entries,
        observations=observations,
    )
