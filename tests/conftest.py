"""Names the test modules share: the package's module list and a cache reset."""

import importlib

MODULES = (
    "exact", "series", "polyring", "kops", "chern", "dyerlashof", "bockstein", "report", "cli"
)


def clear_caches():
    """Empty every lru_cache of the modules."""
    for module_name in MODULES:
        for obj in vars(importlib.import_module(f"kverify.{module_name}")).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
