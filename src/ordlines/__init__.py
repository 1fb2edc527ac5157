"""Exact-arithmetic laboratory for ordinary lines and spanned lines and planes
of finite point sets in the plane and in space.

Each module's ``__all__`` declares its public names; the package re-exports them
on first use (PEP 562), importing the library modules in dependency order until
one exports the name, so ``import ordlines`` alone loads no submodule.
"""

from importlib import import_module

__version__ = "0.1.0"

# Dependency order: each module imports only modules before it.
_MODULES = "errors fields geometry incidence pointset_io constructions analysis search".split()


def __getattr__(name: str):
    for m in _MODULES:
        module = import_module(f"{__name__}.{m}")
        if name in module.__all__:
            globals()[name] = getattr(module, name)
        if name in globals():  # an export cached above, or a module its import bound
            return globals()[name]
    if name != "__all__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = [n for m in _MODULES for n in globals()[m].__all__]
    return globals()[name]


def __dir__():
    # What the eager package listed: its own attributes, the exports and the modules.
    exports = __getattr__("__all__")  # binds every library module too
    return sorted({*globals(), *exports} - {"__dir__", "__getattr__", "_MODULES", "import_module"})
