"""Reproduce the Table 4 case study: RE vs. user-intent on Titanic.

The paper's metric-validation case study: an input script that merely
loads the data, and two increasingly standard candidate outputs — s1 adds
the conventional target split, s2 additionally imputes Age/Embarked.  RE
should drop monotonically (more standard) while both intent measures stay
within the defaults (Δ_J ≥ 0.9, Δ_M ≤ 1%).

Run:  python examples/titanic_case_study.py
"""

import tempfile

from repro import build_competition
from repro.core import LucidScript, ModelPerformanceIntent, TableJaccardIntent
from repro.harness import render_table
from repro.sandbox import run_script

S_U = (
    "import pandas as pd\n"
    "import numpy as np\n"
    "df = pd.read_csv('train.csv')"
)

S_1 = S_U + (
    "\ny = df['Survived']"
    "\nX = df.drop('Survived', axis=1)"
)

S_2 = (
    "import pandas as pd\n"
    "import numpy as np\n"
    "df = pd.read_csv('train.csv')\n"
    "df['Age'] = df['Age'].fillna(df['Age'].mean())\n"
    "df['Embarked'] = df['Embarked'].fillna('S')\n"
    "y = df['Survived']\n"
    "X = df.drop('Survived', axis=1)"
)


def main() -> None:
    with tempfile.TemporaryDirectory() as root:
        print("building the Titanic competition...")
        competition = build_competition("titanic", root, seed=0, n_scripts=30)
        system = LucidScript(competition.scripts)
        jaccard = TableJaccardIntent(tau=0.9)
        model = ModelPerformanceIntent(
            target=competition.target, tau=1.0, task=competition.task
        )

        baseline_output = run_script(
            S_U, data_dir=competition.data_dir, sample_rows=400
        ).output

        rows = []
        for label, script in [("s_u", S_U), ("s_1", S_1), ("s_2", S_2)]:
            re_score = system.score(script)
            output = run_script(
                script, data_dir=competition.data_dir, sample_rows=400
            ).output
            delta_j = jaccard.delta(baseline_output, output)
            delta_m = model.delta(baseline_output, output)
            rows.append(
                [label, f"{re_score:.2f}", f"{delta_j:.2f}", f"{delta_m:.1f}%"]
            )

        print()
        print(
            render_table(
                ["script", "RE", "delta_J", "delta_M"],
                rows,
                title="Table 4 case study (paper: RE 3.02 -> 2.49 -> 1.37)",
            )
        )
        print(
            "\nRE decreases as conventional steps are added, while both "
            "intent measures stay near identity — the paper's claim that "
            "the metric tracks meaningful standardization."
        )


if __name__ == "__main__":
    main()
