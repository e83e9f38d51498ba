"""Memory-bounded fact retention against a panel of bounded-memory experts.

A learner watches an adversarial stream of taught facts and posed questions,
pays unit cost for every question it cannot answer from its bounded memory,
and tries to track the best of N experts that each follow their own bounded
retention rule.
"""

from .adversaries import (
    FixedStreamAdversary,
    LowerBoundAdversary,
    LowerBoundInstance,
    PigeonholeError,
    build_lower_bound_instance,
    random_stream,
)
from .experts import (
    ScriptedSuite,
    SimulatedValueSuite,
    ThresholdValueSuite,
    ValueTable,
    build_scripted_suite,
    load_expert_suite,
    random_value_suite,
)
from .harness import (
    BoundCheck,
    BoundReport,
    BudgetViolationError,
    ConfigError,
    RunConfig,
    check_bounds,
    emit_outputs,
    run_game,
    sweep,
)
from .invariants import verify
from .learners import (
    FullSimLearner,
    LazyLearner,
    MwuLearner,
    RandomEvictLearner,
    ValueLazyLearner,
)
from .model import (
    EVALUATE,
    TEACH,
    Event,
    Fact,
    GameLedger,
    Stream,
    dump_stream,
    evaluate,
    load_stream,
    teach,
    validate_sequential,
)

__version__ = "0.1.0"
