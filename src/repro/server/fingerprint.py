"""Canonical workload fingerprints for the advisor service.

The service caches full recommendations keyed by *content*, not by
upload identity: two tenants (or the same tenant twice) submitting the
same catalog + workload + parameters must map to the same cache entry,
and any change to any input must miss.

Fingerprints are sha256 digests over the canonical JSON serialization
of the inputs (:func:`repro.catalog.io.canonical_dumps` /
:func:`~repro.catalog.io.payload_fingerprint`): key order never
matters, builtin ``hash()`` (process-salted) is never involved, and
the digests are stable across machines — so a warm cache can in
principle be shipped between replicas.

A job's key is built in two steps:

* :func:`catalog_fingerprint` — database + disk farm + workload +
  constraints: everything that feeds the workload analysis.  It keys
  nothing on its own; it is the input half of the job fingerprint.
* :func:`job_fingerprint` — the catalog fingerprint plus the current
  layout and the :class:`~repro.core.advisor.SearchOptions` fields
  tagged as content-affecting (method, k, trajectory portfolio,
  movement budget).  Keys the recommendation cache.  SLO-only
  fields (jobs, deadline, retries, faults) are
  deliberately **excluded**: they bound how long the service may
  spend, not what the search computes, so a repeat submission with a
  tighter deadline can still be served from cache instantly — the
  best possible way to meet the deadline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.catalog.io import payload_fingerprint

if TYPE_CHECKING:
    from repro.core.advisor import SearchOptions

#: Schema tag mixed into every fingerprint so a format change in the
#: serialized inputs can never collide with digests from an older
#: service build.
FINGERPRINT_VERSION = 1


def workload_payload(statements) -> list[list[Any]]:
    """JSON-ready canonical form of a workload's statements.

    Statement *order* is preserved — the cost model weights statements
    individually so order does not change results, but preserving it
    keeps the fingerprint a pure function of what the client sent.
    """
    return [[s.sql, float(s.weight), s.name or ""] for s in statements]


def catalog_fingerprint(db_payload: Any, farm_payload: Any,
                        statements, constraints_payload: Any = None,
                        ) -> str:
    """Fingerprint of everything that feeds the workload analysis."""
    return payload_fingerprint(
        FINGERPRINT_VERSION, db_payload, farm_payload,
        workload_payload(statements), constraints_payload)


def job_fingerprint(catalog_fp: str, options: SearchOptions,
                    current_layout: Any = None) -> str:
    """Fingerprint of a recommendation job: inputs + content options.

    Only the content-tagged fields of ``options``
    (:meth:`~repro.core.advisor.SearchOptions.content`) participate,
    plus ``current_layout`` (the tenant's layout payload, or ``None``
    for the full-striping default).
    """
    content = options.content()
    content["current_layout"] = current_layout
    return payload_fingerprint(FINGERPRINT_VERSION, catalog_fp, content)
