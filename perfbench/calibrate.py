"""Fixed reference job that run.py times to track the machine's speed.

Like a short jsrkit op, it starts the interpreter, imports numpy and mixes
pure-Python arithmetic with 2x2 matrix products. It never imports jsrkit,
so no change to the program under test changes its time. run.py runs it
between ops and scales each op's time by how long this job took around it
(see README.md, "Machine-speed calibration").

    python3 perfbench/calibrate.py
"""

import numpy as np


def main() -> float:
    a = np.array([[0.6, 0.3], [0.1, 0.7]])
    p = np.eye(2)
    total = 0.0
    for i in range(12000):
        p = a @ p
        if i % 16 == 0:
            p = p / np.abs(p).max()
        total += float(p[0, 0]) + (i % 7) * 0.5
    return total


if __name__ == "__main__":
    main()
