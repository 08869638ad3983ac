"""Exact polyomino strip-tiling counts, generating functions, and entropy bounds.

Each submodule is imported on first use of a name it exports (PEP 562), so
`import tesserae` is cheap and a command compiles only the modules it runs.
"""

__version__ = "0.1.0"

# submodule -> the public names it exports here
_EXPORTS = {
    "automaton": (
        "AutomatonError CountSeries NoTilingsError OracleLimitError StateBudgetError "
        "TransferAutomaton brute_force_count build_automaton count_rect series "
        "to_dot trim_reachable"
    ).split(),
    "gf": (
        "LinearRecurrence RationalGF RecurrenceError expand "
        "faultfree from_faultfree infer_recurrence poly_gcd recurrence_to_gf "
        "strip_gf"
    ).split(),
    "ising": (
        "BETA_CRITICAL BETA_TILING IsingBound IsingError eight_cell_bound "
        "fylfot_sum onsager_entropy spin_weight_sum t_tetromino_bound"
    ).split(),
    "poly": (
        "Polyomino TileError TileSet make_tileset orientations parse_polyomino "
        "parse_tile_file preset"
    ).split(),
    "spectral": (
        "EntropyReport SpectralError dominant_root entropy_lower entropy_upper "
        "perron_root residual strip_entropy"
    ).split(),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    # not cached here, so a name rebound in its submodule reads the same through the package
    module = _SOURCE.get(name, name if name in _EXPORTS else None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    loaded = import_module(f".{module}", __name__)
    return loaded if module == name else getattr(loaded, name)


def __dir__():
    return sorted({*globals(), *_SOURCE, *_EXPORTS})
