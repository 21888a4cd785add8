"""Workload definitions shared by run.py and its child processes.

Each workload pins its dataset (synthetic generator seed and shape) so the
amount of work is the same on every run; the benchmark's ``--seed`` sets
the order in which the novel sequences arrive at the clusterer.  Training
cost on these synthetic sets moves by about 20 % from one dataset seed to
the next (coordinate-descent sweeps depend on the data), which is wider
than any useful regression bound, so the dataset is not drawn from the
seed.

Kinds:
  experiment  one cold ``mkdmts.evalx.run_experiment`` per operation
  stream      set up a trained model, then describe and place novel
              sequences one at a time (closed loop, one caller)
"""

from __future__ import annotations

WORKLOADS = {
    "quickstart": {
        "kind": "experiment",
        "config": {
            "synth": {
                "seed": 7,
                "num_seen_classes": 4,
                "num_unseen_classes": 2,
                "dims": 2,
                "length_range": [60, 90],
                "samples_per_class": 6,
            },
            "bandwidth": 40.0,
            "train": {"k": 8, "t_x": 2, "t_a": 4, "t_beta": 1, "seed": 7},
        },
    },
    "many_short": {
        "kind": "experiment",
        "config": {
            "synth": {
                "seed": 5,
                "num_seen_classes": 6,
                "num_unseen_classes": 2,
                "dims": 2,
                "length_range": [10, 14],
                "samples_per_class": 6,
            },
            "bandwidth": 4.0,
            "train": {"k": 10, "t_x": 2, "t_a": 5, "t_beta": 1, "seed": 5},
        },
    },
    "novel_stream": {
        "kind": "stream",
        "synth": {
            "seed": 11,
            "num_seen_classes": 4,
            "num_unseen_classes": 4,
            "dims": 3,
            "length_range": [60, 90],
            "samples_per_class": 8,
        },
        "seen_per_class": 6,
        "bandwidth": 40.0,
        "train": {"k": 8, "t_x": 2, "t_a": 3, "t_beta": 1, "seed": 11},
        "threshold": 0.1,
    },
}

# Order seeds whose partition, CE and NMI are recorded in references.json.
# Other seeds are checked by invariants only (cache validation, coverage).
RECORDED_ORDER_SEEDS = range(128)
