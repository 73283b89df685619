"""Paths as first-class citizens (Sections 4.3 and 5.2).

* :mod:`repro.paths.steps` — concrete path steps and the :class:`Path`
  value,
* :mod:`repro.paths.pathops` — the interpreted functions on paths
  (``length``, the paper's inclusive projection, prefix tests),
* :mod:`repro.paths.enumeration` — enumeration of concrete paths from a
  value under the restricted or liberal semantics,
* :mod:`repro.paths.schema_paths` — type-level path enumeration for the
  algebraization of Section 5.4.
"""

from repro.paths.enumeration import (
    LIBERAL,
    RESTRICTED,
    enumerate_paths,
    paths_from,
)
from repro.paths.pathops import path_length, path_project, path_startswith
from repro.paths.steps import (
    AttrStep,
    DEREF,
    DerefStep,
    ElemStep,
    IndexStep,
    Path,
    Step,
)
from repro.paths.schema_paths import SchemaPath, enumerate_schema_paths

__all__ = [
    "AttrStep", "DEREF", "DerefStep", "ElemStep", "IndexStep",
    "LIBERAL", "Path", "RESTRICTED", "SchemaPath", "Step",
    "enumerate_paths", "enumerate_schema_paths", "path_length",
    "path_project", "path_startswith", "paths_from",
]
