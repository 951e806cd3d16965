"""Continuous-time generative models (diffusion and flow) as RL policies."""

from .critic import Critic, CriticConfig, expectile_loss, iql_step, train_critic
from .data import (OfflineDataset, SwissRollTask, load_dataset, make_swiss_roll,
                   make_tilted_gaussian_bandit, save_dataset)
from .likelihood import LogDensityResult, TraceMode, generate_with_log_prob, log_prob
from .matching import MatchingConfig, cfm_loss, dsm_loss, matching_loss
from .model import GenerativeModel
from .nn import FieldNetwork, GaussianFourier, Mlp
from .optim import Adam
from .policy import (GenerativePolicy, GmpgConfig, GmpoConfig, PolicyConfig, gmpg_loss,
                     gmpo_weight, pretrain_behavior, train_gmpg, train_gmpo)
from .sampler import SolverSpec, Trajectory, generate, integrate
from .schedules import (PathSchedule, alpha_sigma, drift_diffusion, sample_path_point,
                        target_velocity)
from .tensor import Tensor

__version__ = "0.1.0"
