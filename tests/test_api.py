"""Public surface: every exported name resolves, retired names stay gone."""

import importlib
import pkgutil

import wavegain

# retired names, by the module that used to export them
REMOVED = {
    "wavegain": ("ModalState", "modal_step", "initial_modal_state",
                 "mode_split", "SteadyStateProfile", "SweepRow",
                 "empirical_gain_sweep", "modal_transfer",
                 "FrequencySearchConfig"),
    "wavegain.modal": ("ModalState", "modal_step", "initial_modal_state",
                       "mode_split", "modal_transfer", "_decay_rate_array",
                       "_near_critical"),
    "wavegain.freq_response": ("SteadyStateProfile", "_sup_gain_many",
                               "_l2_gain_many"),
    "wavegain.gain_bounds": ("_l2_gain_one", "_decay_rate_array",
                             "_near_critical", "FrequencySearchConfig"),
    "wavegain.simulator": ("SweepRow", "empirical_gain_sweep"),
    "wavegain.cli": ("PARALLEL_ENV", "ThreadPoolExecutor"),
}


def test_exported_names_resolve_and_removed_names_are_gone():
    modules = {"wavegain": wavegain}
    for info in pkgutil.iter_modules(wavegain.__path__):
        if info.name != "__main__":
            name = f"wavegain.{info.name}"
            modules[name] = importlib.import_module(name)
    for name, mod in modules.items():
        for attr in getattr(mod, "__all__", ()):
            assert hasattr(mod, attr), f"{name}.__all__ lists missing {attr}"
    for name, attrs in REMOVED.items():
        mod = modules[name]
        for attr in attrs:
            assert not hasattr(mod, attr), f"{name}.{attr} still exists"
            assert attr not in getattr(mod, "__all__", ()), (name, attr)
