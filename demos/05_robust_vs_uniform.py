"""Why hardness-weighted sampling exists: the underrepresented subgroup.

Forty clean cases, four from a weaker acquisition whose signal is dimmer
and bleeds between channels.  A uniformly shuffled training run spends a
tenth of its gradient budget on the rare cases and inherits their
systematic misfit; hardness-weighted sampling notices their losses stay
high and keeps drawing them until the fit gives.  Same model, same
optimizer, same epochs; only the sampling differs.
"""

import tempfile

import numpy as np

from segopt.metrics import evaluate_case
from segopt.model import Ensemble, Model, ModelSpec, TrainConfig, train
from segopt.synthdata import SynthConfig, generate, load


def subgroup_wt_dice(trained, cases, subgroup):
    single = Ensemble([trained.model])
    vals = []
    for case in cases:
        if case.subgroup != subgroup:
            continue
        vals.append(evaluate_case(single.labels(case), case.labels).dice["WT"])
    return float(np.mean(vals))


def fit(cases, mode, seed):
    spec = ModelSpec(kind="linear", input_features=4, num_classes=4,
                     seed=seed + 2)
    config = TrainConfig(loss="dice_ce", population=mode, beta=100.0,
                         optimizer="sgd", lr=0.05, epochs=150,
                         batch_size=2, seed=seed)
    return train(Model.init(spec), cases, config)


def main():
    with tempfile.TemporaryDirectory() as workdir:
        generate(SynthConfig(grid=(24, 24),
                             subgroup_cases={"common": 40, "rare": 4},
                             sigma=0.3, seed=0), workdir)
        cases = load(f"{workdir}/manifest.json")
    print("dataset: 40 common cases, 4 rare low-contrast cases, noise 0.3")
    print()
    print(f"  {'seed':>4} {'uniform rare':>13} {'weighted rare':>14} "
          f"{'uniform common':>15} {'weighted common':>16}")
    gaps = []
    for seed in range(3):
        erm = fit(cases, "erm", seed)
        dro = fit(cases, "dro", seed)
        e_rare = subgroup_wt_dice(erm, cases, "rare")
        d_rare = subgroup_wt_dice(dro, cases, "rare")
        e_common = subgroup_wt_dice(erm, cases, "common")
        d_common = subgroup_wt_dice(dro, cases, "common")
        gaps.append(d_rare - e_rare)
        print(f"  {seed:>4} {e_rare:>13.3f} {d_rare:>14.3f} "
              f"{e_common:>15.3f} {d_common:>16.3f}")
    print()
    print(f"rare-subgroup whole-tumor dice improves by "
          f"{np.mean(gaps):+.3f} on average; the common subgroup gives "
          f"back some headroom, the usual price when the objective is "
          f"the worst group rather than the average")

    # where the sampler ended up looking
    dro = fit(cases, "dro", 0)
    p = dro.sampler.probabilities()
    rare_mass = sum(float(p[i]) for i, c in enumerate(cases)
                    if c.subgroup == "rare")
    print(f"final sampler mass on the 4 rare cases: {rare_mass:.2f} "
          f"(uniform would give {4 / len(cases):.2f})")


if __name__ == "__main__":
    main()
