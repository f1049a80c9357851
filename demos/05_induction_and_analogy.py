"""Induction by centroid distance and analogy completion.

Induction: given a few entities sharing an (unknown) property, rank the
rest of their semantic type by distance to the training centroid.
Analogy: complete "a is to b what c is to ?" by cosine over the candidate
pool of the gold answers' type.
"""

import numpy as np

from typespace import synth
from typespace.evalharness import AnalogyProblem, EmbeddingView, eval_analogy, eval_induction

# --- induction ---------------------------------------------------------------
entity_ids, points, ts, problems = synth.clustered_embedding(
    n_entities=60, n_problems=3, cluster_size=12, seed=23
)
view = EmbeddingView(entity_ids=entity_ids, points=points)
results = eval_induction(problems, view, ts)
print("induction over 3 clustered property sets:")
print(f"  MAP {results['map']:.3f}   P@5 {results['p_at_5']:.3f}   MRR {results['mrr']:.3f}")
for row in results["per_problem"]:
    print(f"  {row['relation']}: AP {row['ap']:.3f} over {row['n_candidates']} candidates")

# --- analogy -----------------------------------------------------------------
# A perfect parallelogram plus distractors: b - a + c lands on d.
rng = np.random.default_rng(1)
pts = rng.normal(scale=2.0, size=(8, 6))
pts[3] = pts[1] - pts[0] + pts[2]
view2 = EmbeddingView(entity_ids=tuple(f"x{i}" for i in range(8)), points=pts)
ts2 = synth.single_type_system("thing", 8)
problem = AnalogyProblem(quads=(("x0", "x1", "x2", "x3"),), test_idx=(0,))
out = eval_analogy(problem, view2, ts2)
print(f"\nanalogy accuracy on the parallelogram fixture: {out['accuracy']:.0%}")
