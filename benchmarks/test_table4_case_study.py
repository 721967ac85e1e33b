"""Table 4 — metric-evaluation case study on Titanic.

An input script that only loads the data, and two increasingly standard
candidate outputs (s1 adds the conventional target split; s2 additionally
imputes Age/Embarked).  The paper reports RE 3.02 -> 2.49 -> 1.37 with
both intent measures effectively at identity.

Shape check here: the fully standardized s2 scores clearly below the bare
s_u, and every candidate stays within the default intent thresholds.
(s1's middle rank is corpus-sensitive: in our synthetic corpora the
read->split edge is rarer than on Kaggle, so s1 may score above s_u; see
EXPERIMENTS.md.)
"""

from repro.core import LucidScript, ModelPerformanceIntent, TableJaccardIntent
from repro.harness import render_table
from repro.sandbox import run_script

from _shared import competition, publish

S_U = "import pandas as pd\nimport numpy as np\ndf = pd.read_csv('train.csv')"
S_1 = S_U + "\ny = df['Survived']\nX = df.drop('Survived', axis=1)"
S_2 = (
    "import pandas as pd\n"
    "import numpy as np\n"
    "df = pd.read_csv('train.csv')\n"
    "df['Age'] = df['Age'].fillna(df['Age'].mean())\n"
    "df['Embarked'] = df['Embarked'].fillna('S')\n"
    "y = df['Survived']\n"
    "X = df.drop('Survived', axis=1)"
)


def test_table4_case_study(benchmark):
    titanic = competition("titanic")
    system = LucidScript(titanic.scripts)
    jaccard = TableJaccardIntent(tau=0.9)
    model = ModelPerformanceIntent(target="Survived", tau=1.0, task="classification")

    def output_of(script):
        result = run_script(script, data_dir=titanic.data_dir, sample_rows=500)
        assert result.ok
        return result.output

    base_output = output_of(S_U)
    rows, scores = [], {}
    for label, script in [("s_u", S_U), ("s_1", S_1), ("s_2", S_2)]:
        re_score = system.score(script)
        out = output_of(script)
        delta_j = jaccard.delta(base_output, out)
        delta_m = model.delta(base_output, out)
        scores[label] = (re_score, delta_j, delta_m)
        rows.append([label, f"{re_score:.2f}", f"{delta_j:.2f}", f"{delta_m:.1f}%"])

    publish(
        "table4_case_study",
        render_table(
            ["script", "RE", "delta_J", "delta_M"],
            rows,
            title="Table 4: case study (paper: RE 3.02 / 2.49 / 1.37)",
        ),
    )

    # shape: the fully standardized script is clearly more standard...
    assert scores["s_2"][0] < scores["s_u"][0]
    assert scores["s_2"][0] < scores["s_1"][0]
    # ...while preserving intent within the paper's default thresholds
    for label in ("s_1", "s_2"):
        assert scores[label][1] >= 0.9   # table Jaccard
        assert scores[label][2] <= 5.0   # model accuracy shift (%)

    benchmark.pedantic(
        lambda: system.score(S_2), rounds=5, iterations=1
    )
