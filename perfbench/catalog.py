"""What the benchmark runs and which layer figures it derives.

Kept free of ionsim and numpy imports: ``run.py`` reads it in the parent
process, which only starts and collects the fresh worker processes.
"""

CLI_HEAVY = ("heat.master_equation", "gate.error_budget", "noise.spectator")
CLI_LIGHT = (
    "clock.tradeoff", "cool.sideband", "gate.bell_ghz", "gate.cn_single",
    "gate.cn_three_pulse", "heat.estimators", "modes.chain_geometry",
    "modes.two_three", "noise.debye_waller", "noise.envelopes", "rabi.example",
    "rabi.ladder", "tomography.coherence", "tomography.populations",
    "trap.stability_be",
)
WORKLOADS = ("cli_light", "cli_heavy", "kernel_sweep")

# Fresh processes per run, each timed from interpreter start to the end of
# set-up; the first one also runs the warm passes. FIRST_PASSES[w] of them,
# spread evenly over the run, also run a first pass. Set-up and first-pass
# figures are medians over these processes; a cli_heavy pass takes seconds,
# so it gets fewer.
FRESH_PROCESSES = {"cli_light": 8, "cli_heavy": 5, "kernel_sweep": 5}
FIRST_PASSES = {"cli_light": 8, "cli_heavy": 3, "kernel_sweep": 5}


def runs_first_pass(workload: str, i: int) -> bool:
    """Whether fresh process i (0 = the warm one) runs a first pass."""
    fresh, first = FRESH_PROCESSES[workload], FIRST_PASSES[workload]
    return i in {round(k * (fresh - 1) / max(first - 1, 1)) for k in range(first)}

# (span name, "module:function"): wrapped at every ionsim module attribute
# bound to the function, only during traced passes
SPANNED = (
    ("config.parse", "_config:parse_config_text"),
    ("config.validate", "_config:validate_block"),
    ("cli.plot", "cli:_plot_files"),
    ("cli.render", "cli:render_csv"),
    ("cli.render", "cli:render_manifest"),
    ("cli.render", "cli:evaluate_expectations"),
    ("decoherence.master_equation_evolve", "decoherence:master_equation_evolve"),
    ("decoherence.spectator_leakage", "decoherence:spectator_leakage"),
    ("decoherence.invert_populations", "decoherence:invert_populations"),
    ("coupling.magic_eta", "coupling:magic_eta"),
    ("pulse_engine.pulse_unitary", "pulse_engine:pulse_unitary"),
    ("pulse_engine.apply_pulse", "pulse_engine:apply_pulse"),
    ("pulse_engine.noisy_sequence_fidelity", "pulse_engine:noisy_sequence_fidelity"),
    ("quantum_core.apply_unitary", "quantum_core:apply_unitary"),
    ("trap_model.chain_equilibrium", "trap_model:chain_equilibrium"),
    ("trap_model.axial_normal_modes", "trap_model:axial_normal_modes"),
    ("trap_model.mathieu_trajectory", "trap_model:mathieu_trajectory"),
    ("cooling.sideband_cool", "cooling:sideband_cool"),
    ("spectroscopy.clock_lock_analysis", "spectroscopy:clock_lock_analysis"),
)
# scalar functions: counted, their time charged to the caller
COUNTED = (("coupling.rabi_frequency_calls", "coupling:rabi_frequency"),)
# spans whose number per pass is reported as <name>_calls
CALL_COUNTS = ("decoherence.master_equation_evolve", "pulse_engine.pulse_unitary",
               "quantum_core.apply_unitary")
# cumulative import time (python -X importtime) of these modules
IMPORT_FIGURES = (
    ("import.ionsim_cli_ms", "ionsim.cli"),
    ("import.ionsim_coupling_ms", "ionsim.coupling"),
    ("import.ionsim_config_ms", "ionsim._config"),
    ("import.scipy_optimize_ms", "scipy.optimize"),
    ("import.scipy_constants_ms", "scipy.constants"),
)


def layer_names() -> set:
    """Every per-layer figure a traced run can produce."""
    names = {f"{span}_ms" for span, _ in SPANNED}
    names |= {"cli.handler_ms", "cli.io_ms", "cli.rows", "bench.unaccounted_ms",
              "bench.pass_cpu_s", "bench.trace_overhead_s"}
    names |= {f"scenario.{s}_ms" for s in CLI_LIGHT + CLI_HEAVY}
    names |= {f"{span}_calls" for span in CALL_COUNTS}
    names |= {name for name, _ in COUNTED}
    names |= {name for name, _ in IMPORT_FIGURES}
    return names
