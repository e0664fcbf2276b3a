"""Resource guards and run configuration.

Every constructor that materializes a carrier or enumerates candidates takes
explicit bounds; these are the package-wide defaults. The CLI reads overrides
from the file named by the MVSR_CONFIG environment variable and from flags.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace

from .errors import check_count

MAX_CARRIER = 4096
MAX_ENUM = 10_000_000
DEFAULT_SEED = 42
DEFAULT_N_MAX = 2


@dataclass(frozen=True)
class ToolConfig:
    max_carrier: int = MAX_CARRIER
    max_enum: int = MAX_ENUM
    seed: int = DEFAULT_SEED
    n_max: int = DEFAULT_N_MAX
    out: str | None = None

    def with_overrides(self, **kw) -> "ToolConfig":
        kw = {k: v for k, v in kw.items() if v is not None}
        return replace(self, **kw) if kw else self


def load_config(path: str | None) -> ToolConfig:
    """Build a ToolConfig from a JSON file; unknown keys are ignored.

    Raises ValueError unless the file holds a JSON object whose bounds are
    integers, by errors.check_count, and whose out is a string or null."""
    cfg = ToolConfig()
    if not path:
        return cfg
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError("config nests too deeply") from None
    if not isinstance(data, dict):
        raise ValueError("config must be a JSON object")
    known = {k: data[k] for k in ("max_carrier", "max_enum", "seed", "n_max", "out") if k in data}
    for key, value in known.items():
        if key == "out" and not isinstance(value, (str, type(None))):
            raise ValueError("config key 'out' must be a string or null")
        if key != "out":
            check_count(value, key, None)
    return cfg.with_overrides(**known)
