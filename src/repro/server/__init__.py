"""Advisor-as-a-service: an asynchronous multi-tenant HTTP daemon.

The library's :class:`repro.core.advisor.LayoutAdvisor` answers one
question for one catalog in one process.  This package wraps it as a
long-lived service (``repro-advisor serve``) that holds many tenant
catalogs in memory, accepts recommendation jobs over a JSON/HTTP API,
runs them on a bounded worker queue, and caches results by canonical
workload fingerprint so repeat submissions are O(1).

Layering (each module usable and testable on its own):

* :mod:`repro.server.fingerprint` — content-addressed cache keys;
* :mod:`repro.server.jobs` — bounded queue + worker threads;
* :mod:`repro.server.api` — the transport-free service core: it
  answers a cached fingerprint at submit, attaches an identical job
  in flight to its leader, and keeps clean results in an LRU;
* :mod:`repro.server.app` — the stdlib HTTP adapter.

See ``docs/server.md`` for the API reference and operations guide.
"""

from repro.server.api import AdvisorService, Tenant
from repro.server.app import AdvisorHTTPServer, make_server, run
from repro.server.fingerprint import catalog_fingerprint, job_fingerprint
from repro.server.jobs import Job, JobQueue

__all__ = [
    "AdvisorHTTPServer",
    "AdvisorService",
    "Job",
    "JobQueue",
    "Tenant",
    "catalog_fingerprint",
    "job_fingerprint",
    "make_server",
    "run",
]
