"""Package surfaces that import on first use (PEP 562).

The packages whose ``__init__`` is a list of re-exports (``repro``,
``repro.bench``, ``repro.graft``, ``repro.graft.views``, ``repro.pregel``,
``repro.serve``) keep their names, ``__all__`` and ``dir()`` but hand each
name out through :func:`lazy_exports`, which imports the defining
submodule when the name is first asked for — so a generated test that
replays one ``compute()`` call does not load the engine, nor a trace
reader the HTTP stack. Each package still lists its re-exports as real
imports under ``if TYPE_CHECKING:`` for editors and linters; the flag is
a module-level ``TYPE_CHECKING = False``, which type checkers treat like
:data:`typing.TYPE_CHECKING` without the cost of ``import typing``.

A name that is also the name of its own submodule
(``repro.graft.debug_run``) cannot be lazy: once the submodule is imported
the import system binds the *module* to that attribute and ``__getattr__``
is never asked, so the package binds it eagerly. See "Startup" in
docs/performance.md for the rules that go with this.
"""

from importlib import import_module


def lazy_exports(package, namespace, exports):
    """Build a package's ``(__getattr__, __dir__)`` from its export table.

    ``exports`` maps a defining module to the names the package re-exports
    from it; ``namespace`` is the package's ``globals()``, where a name is
    cached once resolved so ``__getattr__`` runs at most once per name.
    """
    module_of = {
        name: module for module, names in exports.items() for name in names
    }

    def __getattr__(name):
        try:
            module = module_of[name]
        except KeyError:
            # Plain AttributeError, nothing else: ``from package import
            # submodule`` probes the attribute first and then imports the
            # submodule, and ``hasattr`` must keep answering False.
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = namespace[name] = getattr(import_module(module), name)
        return value

    def __dir__():
        return sorted(set(namespace) | set(module_of))

    return __getattr__, __dir__
