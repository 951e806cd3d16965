#!/usr/bin/env python3
"""Swiss-roll toy: policy extraction on a 2-D spiral bandit.

Trains the critic, a behavior flow, a weighted-regression policy (from
scratch) and a reverse-KL policy (fine-tuned from the behavior flow), then
compares the mean value of generated actions and their distance to the
data manifold, and exports generation trajectories for plotting. Expect
roughly ten minutes on a laptop CPU.
"""

import argparse
import os
import time

import numpy as np

from genpolicy.checkpoint import copy_policy, save_critic, save_policy
from genpolicy.cli import export_trajectories
from genpolicy.critic import CriticConfig, train_critic
from genpolicy.data import (SwissRollTask, assign_value_nearest, make_swiss_roll,
                            nearest_distances, save_dataset)
from genpolicy.likelihood import TraceMode
from genpolicy.policy import (GenerativePolicy, GmpgConfig, GmpoConfig, PolicyConfig,
                              pretrain_behavior, train_gmpg, train_gmpo)
from genpolicy.sampler import SolverSpec
from genpolicy.schedules import PathSchedule


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="runs/swiss_roll")
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)
    t0 = time.time()

    ds = make_swiss_roll(SwissRollTask(n=10_000, seed=args.seed))
    save_dataset(ds, os.path.join(args.out, "dataset.gpds"))
    print(f"dataset mean value: {ds.r.mean():+.3f} (values span [-3.5, 1.5])")

    sched = PathSchedule("icfm")
    eval_solver = SolverSpec("rk4_38", 32)
    arch = PolicyConfig(state_dim=1, action_dim=2, hidden=(128, 128, 128), schedule=sched,
                        eval_solver=eval_solver)

    critic = train_critic(ds, CriticConfig(tau=0.7, lr=1e-3, hidden=(64, 64),
                                           steps=6000, batch_size=256),
                          np.random.default_rng(args.seed + 1))
    save_critic(critic, os.path.join(args.out, "critic.ckpt"))
    print(f"[{time.time()-t0:6.1f}s] critic trained")

    behavior = GenerativePolicy(arch, np.random.default_rng(args.seed + 2))
    behavior.set_normalizer_from(ds)
    pretrain_behavior(ds, behavior,
                      GmpoConfig(steps=10_000, batch_size=256, lr=1e-3,
                                 lr_schedule=((6000, 3e-4), (9000, 1e-4))),
                      np.random.default_rng(args.seed + 3))
    save_policy(behavior, os.path.join(args.out, "behavior.ckpt"))
    samp = behavior.sample_actions(np.zeros((1000, 1)), np.random.default_rng(0), eval_solver)
    print(f"[{time.time()-t0:6.1f}s] behavior: value={assign_value_nearest(ds, samp).mean():+.3f} "
          f"manifold-dist={nearest_distances(samp, ds.a).mean():.4f}")

    pol_awr = GenerativePolicy(arch, np.random.default_rng(args.seed + 4))
    pol_awr.set_normalizer_from(ds)
    train_gmpo(ds, critic, pol_awr,
               GmpoConfig(beta=3.0, w_max=1000.0, steps=6000, batch_size=64, lr=1e-3),
               np.random.default_rng(args.seed + 5))
    save_policy(pol_awr, os.path.join(args.out, "gmpo.ckpt"))
    samp = pol_awr.sample_actions(np.zeros((1000, 1)), np.random.default_rng(0), eval_solver)
    awr_dist = nearest_distances(samp, ds.a).mean()
    print(f"[{time.time()-t0:6.1f}s] weighted regression: "
          f"value={assign_value_nearest(ds, samp).mean():+.3f} manifold-dist={awr_dist:.4f}")
    export_trajectories(pol_awr, np.zeros((64, 1)), eval_solver, np.random.default_rng(1),
                        os.path.join(args.out, "gmpo_trajectories.csv"))

    pol_pg = copy_policy(behavior)
    train_gmpg(ds, critic, pol_pg, behavior,
               GmpgConfig(beta=3.0, t_train=32, scheme="euler", trace=TraceMode("exact"),
                          steps=250, batch_size=192, lr=2e-4),
               np.random.default_rng(args.seed + 6))
    save_policy(pol_pg, os.path.join(args.out, "gmpg.ckpt"))
    samp = pol_pg.sample_actions(np.zeros((1000, 1)), np.random.default_rng(0), eval_solver)
    pg_dist = nearest_distances(samp, ds.a).mean()
    print(f"[{time.time()-t0:6.1f}s] policy gradient:     "
          f"value={assign_value_nearest(ds, samp).mean():+.3f} manifold-dist={pg_dist:.4f}")
    export_trajectories(pol_pg, np.zeros((64, 1)), eval_solver, np.random.default_rng(1),
                        os.path.join(args.out, "gmpg_trajectories.csv"))

    print(f"manifold adherence: policy-gradient dist {pg_dist:.4f} vs "
          f"weighted-regression dist {awr_dist:.4f}")


if __name__ == "__main__":
    main()
