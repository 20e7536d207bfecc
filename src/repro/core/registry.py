"""Policy registry: name -> :class:`ClusterPolicy` subclass.

Every policy the cluster can run — the paper's comparison set, its
ablations, and any extension — registers itself here; the cluster, the
harness, examples and the CLI all construct policies exclusively through
:func:`create_policy`, so adding a scenario is one subclass + one decorator
with no cluster-core surgery.

    from repro.core.policy import ClusterPolicy
    from repro.core.registry import register_policy

    @register_policy
    class MyPolicy(ClusterPolicy):
        name = "my-policy"
        ...

Importing this module loads the built-in policy modules so the registry is
always fully populated.
"""

from __future__ import annotations

from typing import Iterator

from repro.config import ClusterConfig
from repro.core.policy import ClusterPolicy

_REGISTRY: dict[str, type[ClusterPolicy]] = {}


def register_policy(cls: type[ClusterPolicy]) -> type[ClusterPolicy]:
    """Class decorator: expose ``cls`` under its :attr:`name`."""
    name = cls.name
    if not name or name == ClusterPolicy.name:
        raise ValueError(
            f"{cls.__name__} must define a unique non-default `name`"
        )
    existing = _REGISTRY.get(name)
    if existing is not None and existing is not cls:
        raise ValueError(
            f"policy name {name!r} already registered by {existing.__name__}"
        )
    _REGISTRY[name] = cls
    return cls


def unregister_policy(name: str) -> None:
    """Remove a policy (tests registering throwaway policies use this)."""
    _REGISTRY.pop(name, None)


def get_policy_class(name: str) -> type[ClusterPolicy]:
    """Look up a registered policy class by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; expected one of {policy_names()}"
        ) from None


def create_policy(name: str, config: ClusterConfig) -> ClusterPolicy:
    """Instantiate the policy registered under ``name``."""
    return get_policy_class(name)(config)


def policy_names() -> tuple[str, ...]:
    """All registered policy names, in registration order."""
    return tuple(_REGISTRY)


def iter_policies() -> Iterator[tuple[str, type[ClusterPolicy]]]:
    return iter(_REGISTRY.items())


def policy_table() -> list[tuple[str, str]]:
    """(name, one-line description) rows for docs and ``--list-policies``."""
    rows = []
    # Registration (insertion) order is deterministic: policies register
    # at import time, module by module.
    for name, cls in _REGISTRY.items():  # lint-ignore: PAS003
        doc = (cls.__doc__ or "").strip().splitlines()
        rows.append((name, doc[0] if doc else ""))
    return rows


# Populate the registry with the built-in policies.  These imports are at
# the bottom on purpose: the policy modules import `register_policy` from
# here, so they must come after it exists.
from repro.core import policies as _builtin_policies  # noqa: E402,F401
from repro.core import extensions as _extension_policies  # noqa: E402,F401
