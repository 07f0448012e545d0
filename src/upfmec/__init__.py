"""Flow-level discrete-epoch simulator of a private-5G UPF/MEC data plane."""

from .delay import net_delay, projected_delay, transit_epochs, worst_case_batch_delay
from .engine import EpochReport, InvariantError, SimulationRun, run_to_completion
from .model import (
    QOS_BY_CODE,
    CostVector,
    MecSpec,
    QosClass,
    RequestStatus,
    Scenario,
    ScenarioError,
    Scheme,
    ServiceQueue,
    TrafficSpec,
    UpfSpec,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    validate_scenario,
)
from .oracle import (
    OracleBoundError,
    minmax_batch_optimum,
    pair_enumeration_optimum,
    sequential_heuristic_batch,
)
from .schemes import (
    assign_baseline,
    assign_bestfit_no_pe,
    assign_bestfit_pe,
    assign_bestfit_upf_mec,
)

__version__ = "0.1.0"
