"""Engine selection: one name, two interchangeable interpreters.

The repo-wide ``Interpreter`` name resolves here.  Both engines execute
the same IR with bit-identical observable behaviour (the contract
``tests/test_engine_equivalence.py`` enforces); they differ only in how
they dispatch:

* ``"fast"`` — :class:`~repro.runtime.predecode.FastInterpreter`, the
  pre-decoded template-dispatch engine (the default);
* ``"reference"`` — :class:`~repro.runtime.interpreter.ReferenceInterpreter`,
  the decode-as-you-go loop the fast engine is measured against.

Selection order: an explicit ``engine=`` argument, else the
``ENCORE_ENGINE`` environment variable, else ``"fast"``.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Type

from repro.ir.module import Module
from repro.runtime.interpreter import ReferenceInterpreter
from repro.runtime.predecode import FastInterpreter

ENGINES: Dict[str, Type[ReferenceInterpreter]] = {
    "fast": FastInterpreter,
    "reference": ReferenceInterpreter,
}

DEFAULT_ENGINE = "fast"

#: Environment variable consulted when no explicit engine is requested.
ENGINE_ENV_VAR = "ENCORE_ENGINE"


def default_engine() -> str:
    """The session's engine name (``ENCORE_ENGINE`` or ``"fast"``)."""
    name = os.environ.get(ENGINE_ENV_VAR, DEFAULT_ENGINE)
    if name not in ENGINES:
        raise ValueError(
            f"unknown engine {name!r} in ${ENGINE_ENV_VAR} "
            f"(choose from {sorted(ENGINES)})"
        )
    return name


def engine_class(name: Optional[str] = None) -> Type[ReferenceInterpreter]:
    """The interpreter class for ``name`` (or the session default)."""
    if name is None:
        name = default_engine()
    try:
        return ENGINES[name]
    except KeyError:
        raise ValueError(
            f"unknown engine {name!r} (choose from {sorted(ENGINES)})"
        ) from None


def make_interpreter(module: Module, *, engine: Optional[str] = None, **kwargs):
    """Build an interpreter on the selected engine.

    ``kwargs`` are the usual interpreter arguments (``max_steps``,
    ``pre_step``, ``post_step``, ``stops``, ``externals``,
    ``metadata_guard``, ``memory_image``).
    """
    return engine_class(engine)(module, **kwargs)
