"""Majority-vote extension from a partial labelling.

Takes correct labels on a random fraction of the vertices and lets the
vote rule assign everyone else: join the side you have strictly more
edges into. Shows how recovery sharpens as the labelled fraction grows
past the vote threshold, and how many vertices the failure mode (a tie)
leaves unassigned when the labelling is very sparse.
"""

from sketchbisect import (
    LogScaleParams,
    bernoulli_vertex_sample,
    sample_sbm,
    vote_extend,
    vote_gamma_threshold,
)

ALPHA, BETA, N = 30.0, 1.0, 600


def oracle_sides(planted, kept):
    plus = [int(v) for v in kept if planted.sign_of(int(v)) > 0]
    minus = [int(v) for v in kept if planted.sign_of(int(v)) < 0]
    return plus, minus


def main():
    params = LogScaleParams(ALPHA, BETA, N).to_sbm_params()
    threshold = vote_gamma_threshold(ALPHA, BETA)
    print(f"vote threshold for (alpha={ALPHA:g}, beta={BETA:g}): "
          f"gamma > {threshold:.4f}")

    print("\nrecovery rate over 20 seeds as the labelled fraction grows:")
    for gamma in (0.05, 0.10, 0.20, 0.40):
        wins = 0
        for s in range(20):
            graph, planted = sample_sbm(params, seed=100 + s)
            kept = bernoulli_vertex_sample(graph, gamma, seed=200 + s)
            plus, minus = oracle_sides(planted, kept)
            part, unassigned = vote_extend(graph, plus, minus)
            wins += unassigned.size == 0 and part.equals_up_to_flip(planted)
        marker = "above" if gamma > threshold else "below"
        print(f"  gamma={gamma:.2f} ({marker} threshold): {wins}/20")

    # with a very sparse labelling some vertices have equally many edges
    # into both sides; the vote leaves each of them unassigned
    graph, planted = sample_sbm(params, seed=100)
    kept = bernoulli_vertex_sample(graph, 0.05, seed=200)
    plus, minus = oracle_sides(planted, kept)
    _, unassigned = vote_extend(graph, plus, minus)
    print(f"\ngamma=0.05, only {len(plus) + len(minus)} labelled vertices: "
          f"{unassigned.size} of {graph.num_vertices - len(kept)} outside vertices tied, "
          f"left unassigned")


if __name__ == "__main__":
    main()
