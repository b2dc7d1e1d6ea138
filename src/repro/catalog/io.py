"""JSON (de)serialization of catalogs, disk farms and constraints.

The paper's tool (Figure 3) takes its inputs as files: the database
(read from system catalogs), a workload file, "a file containing a list
of disk drives with the associated disk characteristics", and optional
constraints.  This module defines the stable JSON formats for everything
except the workload (which is plain SQL, handled by
:meth:`repro.workload.Workload.load`).

Formats are intentionally flat and hand-editable; every ``load_*`` is
the inverse of the corresponding ``save_*``.  Every ``load_*`` (and
every other JSON input the CLI takes) reads through :func:`read_json`,
so a file that is not JSON, has the wrong top-level type or lacks a
field raises :class:`~repro.errors.CatalogError` naming the file
(:class:`~repro.errors.RecommendationFormatError` for saved
recommendations, migration plans and drift reports).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Callable

from repro.catalog.schema import (
    Column,
    Database,
    Index,
    MaterializedView,
    Table,
)
from repro.catalog.stats import ColumnStats, Histogram
from repro.core.constraints import (
    AvailabilityRequirement,
    CoLocated,
    ConstraintSet,
    MaxDataMovement,
)
from repro.core.layout import Layout
from repro.errors import CatalogError, RecommendationFormatError
from repro.storage.disk import Availability, DiskFarm, DiskSpec
from repro.storage.migration import MigrationPlan
from repro.workload.drift import DriftReport

# -- canonical fingerprints ------------------------------------------------------


def canonical_dumps(data: Any) -> str:
    """The canonical JSON serialization of ``data``.

    Keys sorted, separators fixed, NaN rejected — two structurally
    equal payloads always serialize to the same bytes, regardless of
    insertion order.  This is the form every content fingerprint is
    computed over.
    """
    return json.dumps(data, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def payload_fingerprint(*parts: Any) -> str:
    """A sha256 content fingerprint over canonicalized ``parts``.

    Each part is serialized with :func:`canonical_dumps` and fed to the
    hash with a length prefix (so part boundaries cannot alias:
    ``("ab", "c")`` and ``("a", "bc")`` differ).  The digest is stable
    across processes and machines — unlike builtin ``hash()`` — which
    is what makes it usable as a cache key for the advisor service
    (:mod:`repro.server`).
    """
    digest = hashlib.sha256()
    for part in parts:
        canonical = canonical_dumps(part).encode("utf-8")
        digest.update(str(len(canonical)).encode("ascii"))
        digest.update(b":")
        digest.update(canonical)
    return digest.hexdigest()


# -- the one reader --------------------------------------------------------------


def read_json(path: str | Path, kind: str,
              build: Callable[[Any], Any] | None = None,
              shape: type = dict,
              error: type[CatalogError] = CatalogError) -> Any:
    """Parse the ``kind`` JSON file at ``path`` and build its object.

    A file that is not JSON, whose top level is not a ``shape``
    (``dict`` or ``list``), or whose payload ``build`` rejects with a
    ``KeyError``, ``TypeError``, ``ValueError``, ``AttributeError`` or
    a :class:`~repro.errors.CatalogError` that names no file raises
    ``error`` naming the file and, for a missing field, the field.
    Other typed errors ``build`` raises pass through.  With no
    ``build`` the parsed payload is returned.
    """
    location = str(path)
    try:
        data = json.loads(Path(path).read_text())
    except ValueError as bad:
        raise error(f"{kind} file is not valid JSON: {bad}",
                    path=location) from None
    if not isinstance(data, shape):
        expected = "an object" if shape is dict else "a list"
        raise error(f"{kind} JSON must be {expected}, got "
                    f"{type(data).__name__}", path=location)
    if build is None:
        return data
    try:
        return build(data)
    except CatalogError as bad:
        if bad.path is not None:
            raise
        raise error(str(bad), path=location) from None
    except KeyError as missing:
        key = missing.args[0] if missing.args else str(missing)
        raise error(f"{kind} JSON missing required key",
                    path=location, key=str(key)) from None
    except (TypeError, ValueError, AttributeError) as bad:
        raise error(f"{kind} JSON malformed: {bad}",
                    path=location) from None


# -- column statistics ---------------------------------------------------------


def _stats_to_dict(stats: ColumnStats) -> dict[str, Any]:
    out: dict[str, Any] = {"ndv": stats.ndv}
    if stats.lo is not None:
        out["lo"] = stats.lo
        out["hi"] = stats.hi
    if stats.null_fraction:
        out["null_fraction"] = stats.null_fraction
    if stats.histogram is not None:
        out["histogram"] = {
            "lo": stats.histogram.lo, "hi": stats.histogram.hi,
            "bucket_fractions": list(stats.histogram.bucket_fractions)}
    return out


def _stats_from_dict(data: dict[str, Any],
                     column: str | None = None) -> ColumnStats:
    try:
        histogram = None
        if "histogram" in data:
            h = data["histogram"]
            histogram = Histogram(lo=h["lo"], hi=h["hi"],
                                  bucket_fractions=tuple(
                                      h["bucket_fractions"]))
        return ColumnStats(ndv=data["ndv"], lo=data.get("lo"),
                           hi=data.get("hi"),
                           null_fraction=data.get("null_fraction", 0.0),
                           histogram=histogram)
    except CatalogError as bad:
        if column is None:
            raise
        raise CatalogError(f"column {column!r}: {bad}") from None


# -- database -------------------------------------------------------------------


def database_to_dict(db: Database) -> dict[str, Any]:
    """The JSON-ready form of a database catalog."""
    return {
        "name": db.name,
        "tables": [
            {
                "name": t.name,
                "row_count": t.row_count,
                "clustered_on": list(t.clustered_on or []),
                "columns": [
                    {"name": c.name, "width_bytes": c.width_bytes,
                     **({"stats": _stats_to_dict(c.stats)}
                        if c.stats else {})}
                    for c in t.columns],
            }
            for t in db.tables],
        "indexes": [
            {"name": ix.name, "table": ix.table,
             "key_columns": list(ix.key_columns),
             "included_columns": list(ix.included_columns)}
            for ix in db.indexes],
        "views": [
            {"name": v.name, "row_count": v.row_count,
             "row_bytes": v.row_bytes, "definition": v.definition}
            for v in db.views],
    }


def database_from_dict(data: dict[str, Any]) -> Database:
    """Rebuild a database catalog from its JSON form."""
    try:
        tables = [
            Table(t["name"], t["row_count"],
                  [Column(c["name"], c["width_bytes"],
                          _stats_from_dict(c["stats"], column=c["name"])
                          if "stats" in c else None)
                   for c in t["columns"]],
                  clustered_on=t.get("clustered_on") or None)
            for t in data["tables"]]
        indexes = [
            Index(ix["name"], ix["table"], ix["key_columns"],
                  included_columns=ix.get("included_columns", ()))
            for ix in data.get("indexes", ())]
        views = [
            MaterializedView(v["name"], v["row_count"], v["row_bytes"],
                             v.get("definition", ""))
            for v in data.get("views", ())]
    except KeyError as missing:
        raise CatalogError(
            f"database JSON missing required field {missing}") from None
    return Database(data.get("name", "database"), tables,
                    indexes=indexes, views=views)


def save_database(db: Database, path: str | Path) -> None:
    """Write a database catalog as JSON."""
    Path(path).write_text(json.dumps(database_to_dict(db), indent=2))


def load_database(path: str | Path) -> Database:
    """Read a database catalog from JSON."""
    return read_json(path, "database", database_from_dict)


# -- disk farm -------------------------------------------------------------------


def farm_to_dict(farm: DiskFarm) -> list[dict[str, Any]]:
    """The JSON-ready form of a disk farm: one entry per drive."""
    return [
        {"name": d.name, "capacity_blocks": d.capacity_blocks,
         "avg_seek_ms": d.avg_seek_s * 1000.0,
         "read_mb_s": d.read_mb_s, "write_mb_s": d.write_mb_s,
         "availability": d.availability.value}
        for d in farm]


def farm_from_dict(data: list[dict[str, Any]]) -> DiskFarm:
    """Rebuild a disk farm from its JSON form."""
    try:
        disks = [
            DiskSpec(name=d["name"],
                     capacity_blocks=d["capacity_blocks"],
                     avg_seek_s=d["avg_seek_ms"] / 1000.0,
                     read_mb_s=d["read_mb_s"],
                     write_mb_s=d["write_mb_s"],
                     availability=Availability(
                         d.get("availability", "none")))
            for d in data]
    except KeyError as missing:
        raise CatalogError(
            f"disk JSON missing required field {missing}") from None
    except ValueError as bad:
        raise CatalogError(f"disk JSON invalid value: {bad}") from None
    return DiskFarm(disks)


def save_farm(farm: DiskFarm, path: str | Path) -> None:
    """Write a disk-farm description as JSON."""
    Path(path).write_text(json.dumps(farm_to_dict(farm), indent=2))


def load_farm(path: str | Path) -> DiskFarm:
    """Read a disk-farm description from JSON."""
    return read_json(path, "disk", farm_from_dict, shape=list)


# -- constraints -----------------------------------------------------------------


def constraints_to_dict(constraints: ConstraintSet,
                        ) -> dict[str, Any]:
    """The JSON-ready form of a constraint set.

    Movement constraints reference a baseline layout and are therefore
    serialized as the bound plus the baseline's fractions.
    """
    out: dict[str, Any] = {
        "co_located": [[c.a, c.b] for c in constraints.co_located],
        "availability": [
            {"object": r.obj, "level": r.level.value}
            for r in constraints.availability],
    }
    if constraints.movement is not None:
        baseline = constraints.movement.baseline
        out["movement"] = {
            "max_blocks": constraints.movement.max_blocks,
            "baseline": {name: list(baseline.fractions_of(name))
                         for name in baseline.object_names},
        }
    return out


def constraints_from_dict(data: dict[str, Any],
                          farm: DiskFarm | None = None,
                          object_sizes: dict[str, int] | None = None,
                          ) -> ConstraintSet:
    """Rebuild a constraint set.

    ``farm`` and ``object_sizes`` are required only when the JSON
    carries a movement constraint (its baseline layout needs them).
    """
    movement = None
    if "movement" in data:
        if farm is None or object_sizes is None:
            raise CatalogError(
                "movement constraint requires farm and object sizes")
        payload = data["movement"]
        baseline = Layout(farm, object_sizes, payload["baseline"])
        movement = MaxDataMovement(baseline,
                                   max_blocks=payload["max_blocks"])
    return ConstraintSet(
        co_located=[CoLocated(a, b)
                    for a, b in data.get("co_located", ())],
        availability=[
            AvailabilityRequirement(r["object"],
                                    Availability(r["level"]))
            for r in data.get("availability", ())],
        movement=movement)


# -- layout ----------------------------------------------------------------------


def layout_to_dict(layout: Layout) -> dict[str, Any]:
    """The JSON-ready form of a layout (fractions per object)."""
    return {
        "fractions": {name: list(layout.fractions_of(name))
                      for name in layout.object_names},
        "object_sizes": layout.object_sizes,
    }


def layout_from_dict(data: dict[str, Any], farm: DiskFarm) -> Layout:
    """Rebuild a layout against the given farm."""
    return Layout(farm, data["object_sizes"], data["fractions"])


def save_layout(layout: Layout, path: str | Path) -> None:
    """Write a layout as JSON."""
    Path(path).write_text(json.dumps(layout_to_dict(layout), indent=2))


def load_layout(path: str | Path, farm: DiskFarm) -> Layout:
    """Read a layout from JSON."""
    return read_json(path, "layout",
                     lambda data: layout_from_dict(data, farm))


# -- recommendation --------------------------------------------------------------


def recommendation_to_dict(recommendation,
                           run_id: str | None = None) -> dict[str, Any]:
    """The JSON-ready form of an advisor recommendation.

    Serializes the layout, the cost comparison (all coerced to plain
    floats), the per-statement breakdown, and — when the search carried
    telemetry — the :meth:`SearchResult.telemetry_dict` payload, so a
    recommendation round-trips losslessly through ``json.dumps``.
    When ``run_id`` is given (the flight recorder's run identifier) it
    is embedded for provenance, linking the saved recommendation to its
    event timeline.
    """
    rec = recommendation
    out: dict[str, Any] = {
        "layout": layout_to_dict(rec.layout),
        "estimated_cost": float(rec.estimated_cost),
        "current_cost": float(rec.current_cost),
        "improvement_pct": float(rec.improvement_pct),
        "per_statement": [
            [str(name), float(current), float(proposed)]
            for name, current, proposed in rec.per_statement],
    }
    if rec.current_layout is not None:
        out["current_layout"] = layout_to_dict(rec.current_layout)
        movement = rec.data_movement_blocks
        if movement is not None:
            out["data_movement_blocks"] = float(movement)
    if rec.search is not None:
        out["search"] = rec.search.telemetry_dict()
    if rec.diagnostics:
        out["diagnostics"] = [d.to_dict() for d in rec.diagnostics]
    if rec.migration is not None:
        out["migration"] = rec.migration.to_dict()
    if rec.movement_budget is not None:
        out["movement_budget"] = float(rec.movement_budget)
    if run_id:
        out["run_id"] = str(run_id)
    return out


def recommendation_from_dict(data: dict[str, Any], farm: DiskFarm):
    """Rebuild a recommendation from its JSON form.

    The saved search telemetry is not restored: ``search`` stays
    ``None``, since the layouts a ``SearchResult`` referenced are gone.
    Everything else a report needs is reconstructed.
    """
    from repro.analysis.diagnostics import Diagnostic, Severity
    from repro.core.advisor import Recommendation
    current = None
    if "current_layout" in data:
        current = layout_from_dict(data["current_layout"], farm)
    diagnostics = [
        Diagnostic(rule_id=d["rule"],
                   severity=Severity(d["severity"]),
                   message=d["message"],
                   location=d.get("location", ""),
                   suggestion=d.get("suggestion"))
        for d in data.get("diagnostics", ())]
    migration = None
    if "migration" in data:
        migration = MigrationPlan.from_dict(data["migration"])
    budget = data.get("movement_budget")
    return Recommendation(
        layout=layout_from_dict(data["layout"], farm),
        estimated_cost=float(data["estimated_cost"]),
        current_cost=float(data["current_cost"]),
        per_statement=[(name, float(c), float(p))
                       for name, c, p in data.get("per_statement", ())],
        current_layout=current,
        diagnostics=diagnostics,
        migration=migration,
        movement_budget=float(budget) if budget is not None else None)


def save_recommendation(recommendation, path: str | Path,
                        run_id: str | None = None) -> None:
    """Write a recommendation (costs, layout, telemetry) as JSON.

    ``run_id`` (optional) embeds the flight-recorder run identifier so
    the saved file can be correlated with its ``--events`` timeline.
    """
    Path(path).write_text(
        json.dumps(recommendation_to_dict(recommendation, run_id=run_id),
                   indent=2))


def load_recommendation(path: str | Path, farm: DiskFarm):
    """Read a recommendation from JSON.

    Raises:
        RecommendationFormatError: When the file is not valid JSON or
            the payload is malformed; the message names the file and,
            for a missing field, the field.
    """
    return read_json(path, "recommendation",
                     lambda data: recommendation_from_dict(data, farm),
                     error=RecommendationFormatError)


# -- migration plan --------------------------------------------------------------


def save_migration_plan(plan: MigrationPlan, path: str | Path,
                        run_id: str | None = None) -> None:
    """Write a migration plan as JSON.

    Args:
        plan: The plan to persist.
        path: Destination file.
        run_id: Optional flight-recorder run identifier to stamp into
            the payload as provenance; round-trips through
            :func:`load_migration_plan` as ``plan.run_id``.
    """
    data = plan.to_dict()
    if run_id:
        data["run_id"] = str(run_id)
    Path(path).write_text(json.dumps(data, indent=2))


def load_migration_plan(path: str | Path) -> MigrationPlan:
    """Read a migration plan from JSON.

    Raises:
        RecommendationFormatError: When the file is not valid JSON or
            the payload is malformed; the message names the file and,
            for a missing field, the field.
    """
    return read_json(path, "migration-plan", MigrationPlan.from_dict,
                     error=RecommendationFormatError)


# -- drift report ----------------------------------------------------------------


def save_drift_report(report: DriftReport, path: str | Path,
                      run_id: str | None = None) -> None:
    """Write a drift report as JSON.

    Args:
        report: The report to persist.
        path: Destination file.
        run_id: Optional flight-recorder run identifier to stamp into
            the payload as provenance; round-trips through
            :func:`load_drift_report` as ``report.run_id``.
    """
    data = report.to_dict()
    if run_id:
        data["run_id"] = str(run_id)
    Path(path).write_text(json.dumps(data, indent=2))


def load_drift_report(path: str | Path) -> DriftReport:
    """Read a drift report from JSON.

    Raises:
        RecommendationFormatError: When the file is not valid JSON or
            the payload is malformed; the message names the file and,
            for a missing field, the field.
    """
    return read_json(path, "drift-report", DriftReport.from_dict,
                     error=RecommendationFormatError)
