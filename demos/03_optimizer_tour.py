"""A tour of the optimizer family on a problem you can see.

Plain SGD with Nesterov momentum, Adam, rectified Adam, and Ranger
(rectified Adam wrapped in Lookahead) minimize the same ill-conditioned
quadratic.  The script prints their trajectories, shows the warmup
behavior that makes RAdam different from Adam in the first steps, and
plots the polynomial learning-rate decay used by the training loop.
"""

import numpy as np

from segopt.optim import PolySchedule, RAdam, make_optimizer

CONDITIONING = np.array([1.0, 10.0])  # one gentle axis, one steep axis


def grad(x):
    return 2.0 * CONDITIONING * x


def run(kind, lr, steps=400):
    opt = make_optimizer(kind)
    x = np.array([2.0, 2.0])
    history = [float(np.abs(x).max())]
    for _ in range(steps):
        x = opt.step(x, grad(x), lr)
        history.append(float(np.abs(x).max()))
    return history


def main():
    print("distance to the optimum of f(x) = x0^2 + 10*x1^2, start (2, 2):")
    runs = {kind: run(kind, lr)
            for kind, lr in (("sgd", 0.01), ("adam", 0.05),
                             ("radam", 0.05), ("ranger", 0.05))}
    print(f"  {'step':>5} " + " ".join(f"{k:>10}" for k in runs))
    for step in (0, 10, 50, 100, 200, 400):
        row = " ".join(f"{runs[k][step]:10.2e}" for k in runs)
        print(f"  {step:>5} {row}")
    print()

    # Adam's adaptive denominator is noise early on; rectified Adam
    # refuses to use it until enough steps have accumulated.
    r = RAdam()
    print("rectified Adam warmup and the variance proxy rho_t:")
    for t in (1, 2, 3, 4, 5, 10, 100, 10_000):
        rho = r.rho_t(t)
        if rho > 4.0:
            print(f"  t={t:>6}  rho {rho:10.3f}  adaptive step, "
                  f"rectification {r.rectification(t):.4f}")
        else:
            print(f"  t={t:>6}  rho {rho:10.3f}  plain momentum step")
    print()

    schedule = PolySchedule(initial_lr=0.01, t_max=1000)
    print("poly decay of the learning rate over 1000 epochs (power 0.9):")
    ts = [0, 100, 250, 500, 750, 900, 1000]
    for t in ts:
        bar = "#" * int(round(40 * schedule.at(t) / 0.01))
        print(f"  epoch {t:>4}  lr {schedule.at(t):.6f}  {bar}")


if __name__ == "__main__":
    main()
