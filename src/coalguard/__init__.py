"""Guard multi-agent variable-write systems against coordinated writes that
would satisfy a critical formula.

Agents own disjoint boolean variables and submit single-variable writes to a
FIFO queue. Each clock tick, a blocking policy (greedy or subset-search)
vetoes just enough requesters to keep every critical formula false. Side
modules analyze the full state space and benchmark the greedy policy.
"""

from .errors import (
    BudgetExceededError,
    CoalGuardError,
    FormulaSyntaxError,
    InsecureStartError,
    ModalFormulaError,
    OwnershipViolationError,
    PreconditionError,
    QueueOrderError,
    ScenarioError,
    UnknownAgentError,
    UnknownVariableError,
)
from .formula import (
    TOP,
    ClauseSet,
    Diamond,
    Formula,
    HornLabeling,
    Literal,
    Not,
    Or,
    Top,
    Var,
    compile_formula,
    conjoin,
    disjoin,
    eval_formula,
    find_horn_labeling,
    format_formula,
    has_diamond,
    parse_formula,
    to_cnf,
    vars_of,
)
from .model import (
    Model,
    PartialValuation,
    SystemState,
    Violation,
    diamond_holds,
    is_secure,
    validate_model,
)
from .engine import (
    ActionQueue,
    ActionRequest,
    BlockForRandomInterval,
    BlockUntilTick,
    BlockingStrategy,
    DropTick,
    EngineConfig,
    RunResult,
    SimulationReport,
    TickOutcome,
    TickRecord,
    apply_actions,
    run_ticks,
    simulate,
    tick,
)
from .blocking import (
    BlockReport,
    BlockingMatrix,
    GreedyIteration,
    OracleRound,
    brute_force_min_block,
    build_matrix,
    greedy_block,
    nondet_block,
    rank_agents,
)
from .analysis import (
    ConnectivitySurvey,
    StateGraph,
    VulnerabilityFinding,
    audit_vulnerabilities,
    build_state_graph,
    formula_from_truth_table,
    is_connected,
    iter_edge_lines,
    secure_path,
    single_flip_agents,
    survey_secure_connectivity,
)
from .scenario import (
    Scenario,
    load_scenario,
    scenario_from_mapping,
    trace_line,
    trace_text,
    write_trace,
)
from .bench import BenchReport, BenchRow, build_cycle_instance, fit_loglog_slope, run_bench

__version__ = "0.1.0"
