"""Analytic gradients vs a central-difference oracle.

Every objective ships with a hand-derived gradient.  The only honest way
to trust those derivations is an independent oracle: central finite
differences that call nothing but the loss.  This script draws random
parameters (and batches, for the data-driven problems) and prints the
worst relative disagreement per problem kind.
"""

from adafamily.problems import (
    default_problems_for_gradcheck,
    finite_diff_grad,
    relative_error,
)


def main():
    print("=== analytic vs central-difference gradients (20 draws each) ===")
    print(f"{'kind':<12} {'dim':>4} {'draws':>6} {'worst rel err':>14}")
    overall = 0.0
    for problem, evals in default_problems_for_gradcheck():
        worst = 0.0
        count = 0
        for params, batch in evals:
            _, analytic = problem.loss_grad(params, batch)
            numeric = finite_diff_grad(problem, params, batch)
            worst = max(worst, relative_error(analytic, numeric))
            count += 1
        overall = max(overall, worst)
        print(f"{problem.kind:<12} {problem.dim:>4} {count:>6} {worst:>14.3e}")
    print()
    print(f"worst disagreement anywhere: {overall:.3e} (tolerance 1e-5)")
    print("the oracle only ever evaluates the loss, so a shared bug in the")
    print("gradient code cannot hide -- the two computations are disjoint.")


if __name__ == "__main__":
    main()
