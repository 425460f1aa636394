"""Linear dynamical system fitting by EM with description-length-based
latent-dimension selection."""

from .criteria import (CriterionValue, KAPPA_UNIFORM, ParamCount, aic, bic,
                       count_params, empirical_fisher_log_det, fia,
                       mdl_description_length, mme, normalize_values)
from .datagen import (NarmaSpec, RandomLdsConfig, delay_embed, narma_generate,
                      preprocess_center_trim, random_stable_lds,
                      sample_inverse_wishart)
from .em import (EmConfig, FitResult, default_init, em_fit, m_step,
                 multi_restart_fit)
from .errors import (DegeneracyError, DegenerateDataError, DimensionError,
                     DivergenceError, InstabilityError, InsufficientDataError,
                     LdsError, RankDeficiencyError, SingularityError,
                     WorkerDiedError)
from .inference import (FilterResult, SmoothedPosterior, complete_data_loglik,
                        kalman_filter, rts_smooth)
from .model import (LdsParams, ModelOrderBounds, SequenceData,
                    enforce_stability, read_sequence_csv, simulate,
                    solve_discrete_lyapunov, spectral_radius,
                    stationary_obs_log_det, write_sequence_csv)
from .selection import (OrderResult, SelectionTrace, annihilation_search,
                        grid_search, write_sweep_csv)

__version__ = "0.1.0"
