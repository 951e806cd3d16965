#!/usr/bin/env python3
"""Tilted-Gaussian bandit experiment: both extraction schemes against the
closed-form optimum N(beta, 1).

Runs the full pipeline (data -> critic -> behavior -> weighted-regression
policy and reverse-KL policy) and prints sample moments next to the
analytic target. Roughly five minutes on a laptop CPU.
"""

import argparse
import os
import time

import numpy as np

from genpolicy.checkpoint import copy_policy, save_critic, save_policy
from genpolicy.critic import CriticConfig, train_critic
from genpolicy.data import make_tilted_gaussian_bandit, save_dataset
from genpolicy.likelihood import TraceMode
from genpolicy.policy import (GenerativePolicy, GmpgConfig, GmpoConfig, PolicyConfig,
                              pretrain_behavior, train_gmpg, train_gmpo)
from genpolicy.schedules import PathSchedule


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--beta", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="runs/bandit")
    ap.add_argument("--gmpg-steps", type=int, default=300)
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)
    t0 = time.time()

    ds, target = make_tilted_gaussian_bandit(1, args.beta, 20_000, seed=args.seed)
    save_dataset(ds, os.path.join(args.out, "dataset.gpds"))

    critic = train_critic(ds, CriticConfig(lr=1e-3, hidden=(32, 32), steps=3000,
                                           batch_size=256),
                          np.random.default_rng(args.seed + 1))
    save_critic(critic, os.path.join(args.out, "critic.ckpt"))
    print(f"[{time.time()-t0:6.1f}s] critic trained")

    pc = PolicyConfig(state_dim=1, action_dim=1, hidden=(64, 64), schedule=PathSchedule("gvp"))
    behavior = GenerativePolicy(pc, np.random.default_rng(args.seed + 2))
    behavior.set_normalizer_from(ds)
    pretrain_behavior(ds, behavior, GmpoConfig(steps=2000, batch_size=128, lr=1e-3),
                      np.random.default_rng(args.seed + 3))
    save_policy(behavior, os.path.join(args.out, "behavior.ckpt"))
    samp = behavior.sample_actions(np.zeros((4096, 1)), np.random.default_rng(0))
    print(f"[{time.time()-t0:6.1f}s] behavior: mean={samp.mean():+.3f} std={samp.std():.3f}"
          f"  (behavior data is N(0, 1))")

    pol = GenerativePolicy(pc, np.random.default_rng(args.seed + 4))
    pol.set_normalizer_from(ds)
    train_gmpo(ds, critic, pol, GmpoConfig(beta=args.beta, steps=3000, batch_size=128, lr=1e-3),
               np.random.default_rng(args.seed + 5))
    save_policy(pol, os.path.join(args.out, "gmpo.ckpt"))
    samp = pol.sample_actions(np.zeros((4096, 1)), np.random.default_rng(0))
    print(f"[{time.time()-t0:6.1f}s] weighted regression: mean={samp.mean():+.3f} "
          f"std={samp.std():.3f}  (target N({target.mean[0]:.1f}, 1))")

    pi2 = copy_policy(behavior)
    cfg = GmpgConfig(beta=args.beta, t_train=32, scheme="euler", trace=TraceMode("exact"),
                     steps=args.gmpg_steps, batch_size=256, lr=3e-4)
    train_gmpg(ds, critic, pi2, behavior, cfg, np.random.default_rng(args.seed + 6))
    save_policy(pi2, os.path.join(args.out, "gmpg.ckpt"))
    samp = pi2.sample_actions(np.zeros((4096, 1)), np.random.default_rng(0))
    print(f"[{time.time()-t0:6.1f}s] policy gradient:     mean={samp.mean():+.3f} "
          f"std={samp.std():.3f}  (target N({target.mean[0]:.1f}, 1))")


if __name__ == "__main__":
    main()
