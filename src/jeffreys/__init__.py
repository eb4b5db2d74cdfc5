"""Competitive prediction games, divergences, and sceptic strategies.

A library plus CLI for playing the four-player prediction protocol
(two predictors, a sceptic, and Nature), measuring how far two
predictors' loss profiles sit apart, and numerically exercising the
guarantees of the sceptic strategies that certify forecaster agreement.
"""

from .aggregating import fixed_pool_mixer, params_for
from .divergence import (DivergenceResult, alpha_divergence_log_loss,
                         alpha_divergence_square_loss, kl_divergence_log_loss,
                         lower_alpha_divergence_numeric,
                         standard_alpha_divergence_log_loss,
                         upper_alpha_divergence_numeric)
from .errors import (ConfigError, DivergenceOverestimate, DomainError,
                     JeffreysError, MixabilityViolation, PoolCollapseError,
                     ProtocolViolationError)
from .games import (GAME_SPECS, Game, GameKind, GameSpec, MixabilityParams,
                    absolute_loss_game, bounded_absolute_loss_game,
                    bounded_square_loss_game,
                    check_non_redundant, check_perfectly_mixable,
                    game_from_descriptor, is_subprediction, is_superprediction,
                    log_loss_game, points_non_redundant, quartic_loss_game,
                    square_loss_game)
from .players import (AdversarialGreedyNature, ConstantNature,
                      ConstantPredictor, DriftPredictor, IidBernoulliNature,
                      IidUniformNature, NatureStrategy, NoisyTargetPredictor,
                      PredictorStrategy, ReplayNature, RunningMeanPredictor)
from .protocol import (RunReport, Trace, classify_disjuncts, require_checks,
                       run_protocol, verify_run)
from .sceptics import (AggregatingSceptic, Level1Sceptic, Level2Sceptic,
                       Level3Sceptic, ScepticStrategy, f_mix, f_mix_integral,
                       level1_ledger, level2_inequality_slack)
from .serialize import trace_to_csv_string, write_report_json, write_trace_csv

__version__ = "0.1.0"
