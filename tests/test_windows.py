"""Session-window sessionization: correctness vs a pandas reference at a
key count (15k) where any per-key dispatch would dominate — the stage must
produce one Ray group per exchange partition regardless of key count
(stages/windows.py). bench.py --scaling measures the wall-clock shape."""

import pytest
import numpy as np
import pandas as pd


def _reference_sessions(df, gap_s):
    out = []
    for uid, g in df.groupby("user_id"):
        g = g.sort_values("ts", kind="stable")
        gaps = g["ts"].diff().dt.total_seconds()
        sess = ((gaps.isna()) | (gaps > gap_s)).astype(int).cumsum() - 1
        for sid, sg in g.groupby(sess):
            out.append((uid, sid,
                        int(sg["ts"].astype("datetime64[ns]").astype("int64").min()
                            // 1_000_000_000),
                        len(sg)))
    return sorted(out)


def test_session_windows_many_keys(ray_session):
    import ray.data as rd

    from jsschema_ray.stages.windows import session_windows

    rng = np.random.default_rng(3)
    n = 40_000
    n_keys = 15_000
    uid = rng.integers(0, n_keys, size=n)
    ts = pd.to_datetime(
        rng.integers(0, 3_000_000, size=n), unit="s"
    )
    df = pd.DataFrame({"user_id": uid, "ts": ts})
    ds = rd.from_pandas(df).repartition(8)
    got = session_windows(ds, key="user_id", ts="ts", gap_seconds=600.0,
                          value=None).to_pandas()
    got_t = sorted(
        (int(r.user_id), int(r.session_id), int(r.session_start),
         int(r.n_events))
        for r in got.itertuples()
    )
    assert got_t == _reference_sessions(df, 600.0)


@pytest.mark.parametrize("seed,gap", [(3, 60.0), (11, 600.0), (29, 5.0)])
def test_session_windows_randomized_differential(ray_session, seed, gap):
    """Randomized sessionization differential vs an independent per-key
    pandas reference: random keys, duplicate timestamps, varied gaps —
    parameterizations the fixed DuckDB oracle never exercises."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from jsschema_ray.stages.windows import session_windows

    rng = np.random.default_rng(seed)
    n = 3000
    pdf = pd.DataFrame({
        "user_id": rng.integers(0, 97, size=n),
        "ts": pd.to_datetime(
            rng.integers(0, 200_000, size=n), unit="s"
        ),
        "value": np.round(rng.normal(50, 10, size=n), 2),
    })
    got = session_windows(
        rd.from_pandas(pdf).repartition(4), gap_seconds=gap,
    ).to_pandas().sort_values(["user_id", "session_id"]).reset_index(
        drop=True)

    # independent reference: per-key loop (intentionally naive)
    rows = []
    for uid, g in pdf.sort_values("ts", kind="stable").groupby("user_id"):
        sess, start, cnt, vx = -1, None, 0, 0
        prev = None
        out_g = []
        for _, r in g.iterrows():
            t = r["ts"].timestamp()
            if prev is None or (t - prev) > gap:
                if sess >= 0:
                    out_g.append((uid, sess, int(start), cnt, vx))
                sess += 1
                start, cnt, vx = t, 0, 0
            cnt += 1
            vx += int(np.sign(r["value"]) * np.floor(abs(r["value"]) * 100 + 0.5))
            prev = t
        out_g.append((uid, sess, int(start), cnt, vx))
        rows.extend(out_g)
    want = pd.DataFrame(
        rows, columns=["user_id", "session_id", "session_start",
                       "n_events", "value_sum_x100"]
    ).sort_values(["user_id", "session_id"]).reset_index(drop=True)

    pd.testing.assert_frame_equal(
        got[want.columns].astype("int64"), want.astype("int64")
    )


@pytest.mark.usefixtures("ray_session")
def test_rolling_windows_vs_naive_reference():
    """rolling_windows vs an intentionally-naive per-row double loop,
    including duplicate (key, ts) rows (RANGE-frame peers) and events
    exactly ON the window boundary (ts - W is INCLUDED, SQL RANGE
    semantics)."""
    import ray.data

    from jsschema_ray.stages.windows import rolling_windows

    rng = np.random.default_rng(11)
    n, w = 400, 600.0
    base = pd.Timestamp("2024-01-01")
    ts = base + pd.to_timedelta(
        rng.integers(0, 3600, n) * 10, unit="s"  # 10s grid -> many ties
    )
    pdf = pd.DataFrame({
        "user_id": rng.integers(0, 7, n).astype("int64"),
        "ts": ts,
        "value": rng.normal(0, 10, n).round(3),
    })
    ds = ray.data.from_pandas(pdf)
    got = rolling_windows(ds, window_seconds=w).to_pandas()
    got = got.sort_values(["user_id", "ts"]).reset_index(drop=True)

    vx = (np.sign(pdf["value"]) *
          np.floor(np.abs(pdf["value"]) * 100 + 0.5)).astype("int64")
    rows = []
    for (uid, t), _ in pdf.groupby(["user_id", "ts"]):
        m = (pdf["user_id"] == uid) & (pdf["ts"] <= t) & (
            pdf["ts"] >= t - pd.Timedelta(seconds=w))
        rows.append((uid, t, int(vx[m].sum()), int(m.sum())))
    want = pd.DataFrame(
        rows, columns=["user_id", "ts", "w_sum_x100", "w_n"]
    ).sort_values(["user_id", "ts"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got, want.astype({"w_sum_x100": "int64", "w_n": "int64"}),
        check_dtype=False,
    )


@pytest.mark.usefixtures("ray_session")
def test_rolling_windows_wide_span_in_one_partition(set_fanout):
    """Keys spread over a ~292-year span (2^63 ns, the int64 range) in
    ONE partition: the block encoding ranks timestamps instead of
    offsetting them, so it cannot overflow, and every window equals the
    pandas reference."""
    import ray.data

    from jsschema_ray.stages.windows import rolling_windows

    t = [-2**62, 2**61, 2**61 + 1, 2**61 + 2, 2**61 + 10**9, 2**62,
         2**62 + 10**9, 5]
    pdf = pd.DataFrame({
        "user_id": np.array([0, 1, 2, 3, 1, 0, 0, 0], dtype="int64"),
        "ts": pd.to_datetime(t),  # ns epoch, huge span
        "value": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
    })
    set_fanout(1)
    got = rolling_windows(ray.data.from_pandas(pdf)).to_pandas()
    got = got.sort_values(["user_id", "ts"]).reset_index(drop=True)

    rows = []
    for (uid, ts), _ in pdf.groupby(["user_id", "ts"]):
        m = (pdf["user_id"] == uid) & (pdf["ts"] <= ts) & (
            pdf["ts"] >= ts - pd.Timedelta(seconds=600))
        rows.append((uid, ts, int(round(pdf["value"][m].sum() * 100)),
                     int(m.sum())))
    want = pd.DataFrame(rows, columns=["user_id", "ts", "w_sum_x100", "w_n"])
    assert want["w_n"].tolist() == [1, 1, 1, 2, 1, 2, 1, 1]
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


@pytest.mark.usefixtures("ray_session")
def test_rolling_rows_vs_naive_reference():
    """rolling_rows_windows vs a naive per-row loop under the same total
    order (ts, tiebreak), including ts ties (the tiebreak decides the
    frame) and keys with fewer than n_rows events (short frames)."""
    import ray.data

    from jsschema_ray.stages.windows import rolling_rows_windows

    rng = np.random.default_rng(23)
    n, nr = 300, 4
    base = pd.Timestamp("2024-01-01")
    pdf = pd.DataFrame({
        "user_id": rng.integers(0, 9, n).astype("int64"),
        "ts": base + pd.to_timedelta(
            rng.integers(0, 50, n) * 10, unit="s"),  # heavy ties
        "event_id": np.arange(n, dtype="int64"),
        "value": rng.normal(0, 10, n).round(3),
    })
    ds = ray.data.from_pandas(pdf)
    got = rolling_rows_windows(
        ds, n_rows=nr
    ).to_pandas().sort_values(["user_id", "event_id"]).reset_index(drop=True)

    vx = (np.sign(pdf["value"]) *
          np.floor(np.abs(pdf["value"]) * 100 + 0.5)).astype("int64")
    ref = pdf.assign(vx=vx).sort_values(
        ["user_id", "ts", "event_id"]).reset_index(drop=True)
    rows = []
    for _, g in ref.groupby("user_id", sort=True):
        g = g.reset_index(drop=True)
        for i in range(len(g)):
            lo = max(i - (nr - 1), 0)
            rows.append((g["user_id"][i], g["event_id"][i],
                         int(g["vx"][lo:i + 1].sum()), i + 1 - lo))
    want = pd.DataFrame(
        rows, columns=["user_id", "event_id", "w_sum_x100", "w_n"]
    ).sort_values(["user_id", "event_id"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[["user_id", "event_id", "w_sum_x100", "w_n"]], want,
        check_dtype=False,
    )

    with pytest.raises(ValueError, match="n_rows"):
        rolling_rows_windows(ds, n_rows=0)


@pytest.mark.usefixtures("ray_session")
def test_running_totals_and_event_deltas():
    """n_rows=None == pandas expanding cumsum per key; event_deltas ==
    pandas groupby.diff under the same total order (NULL firsts)."""
    import ray.data

    from jsschema_ray.stages.windows import event_deltas, rolling_rows_windows

    rng = np.random.default_rng(5)
    n = 250
    pdf = pd.DataFrame({
        "user_id": rng.integers(0, 6, n).astype("int64"),
        "ts": pd.Timestamp("2024-01-01") + pd.to_timedelta(
            rng.integers(0, 40, n) * 7, unit="s"),
        "event_id": np.arange(n, dtype="int64"),
        "value": rng.normal(0, 5, n).round(2),
    })
    ds = ray.data.from_pandas(pdf)

    got = rolling_rows_windows(ds, n_rows=None
                               ).to_pandas().sort_values(
        ["user_id", "event_id"]).reset_index(drop=True)
    ref = pdf.assign(
        vx=(np.sign(pdf["value"]) *
            np.floor(np.abs(pdf["value"]) * 100 + 0.5)).astype("int64")
    ).sort_values(["user_id", "ts", "event_id"]).reset_index(drop=True)
    ref["w_sum_x100"] = ref.groupby("user_id")["vx"].cumsum()
    ref["w_n"] = ref.groupby("user_id").cumcount() + 1
    ref = ref.sort_values(["user_id", "event_id"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[["user_id", "event_id", "w_sum_x100", "w_n"]],
        ref[["user_id", "event_id", "w_sum_x100", "w_n"]],
        check_dtype=False,
    )

    got_d = event_deltas(ds).to_pandas().sort_values(
        ["user_id", "event_id"]).reset_index(drop=True)
    ref_d = pdf.sort_values(["user_id", "ts", "event_id"]).reset_index(
        drop=True)
    us = ref_d["ts"].astype("datetime64[us]").astype("int64")
    ref_d["delta_us"] = us.groupby(ref_d["user_id"]).diff()
    ref_d = ref_d.sort_values(["user_id", "event_id"]).reset_index(drop=True)
    assert (got_d["delta_us"].isna() == ref_d["delta_us"].isna()).all()
    m = ~ref_d["delta_us"].isna()
    assert (got_d.loc[m, "delta_us"].astype("int64").to_numpy()
            == ref_d.loc[m, "delta_us"].astype("int64").to_numpy()).all()


@pytest.mark.usefixtures("ray_session")
def test_ntile_sql_sizing():
    """ntile vs SQL sizing on adversarial group sizes: n < k, n == k,
    n % k != 0 — checked against DuckDB's native NTILE."""
    import duckdb
    import ray.data

    from jsschema_ray.stages.windows import ntile

    rng = np.random.default_rng(31)
    sizes = [1, 2, 3, 4, 5, 7, 8, 11, 100]
    frames = []
    eid = 0
    for g, n in enumerate(sizes):
        frames.append(pd.DataFrame({
            "user_id": np.full(n, g, dtype="int64"),
            "ts": pd.Timestamp("2024-01-01")
            + pd.to_timedelta(rng.integers(0, 20, n), unit="s"),
            "event_id": np.arange(eid, eid + n, dtype="int64"),
        }))
        eid += n
    pdf = pd.concat(frames, ignore_index=True).sample(
        frac=1, random_state=0).reset_index(drop=True)
    ds = ray.data.from_pandas(pdf).repartition(5)
    got = ntile(ds, k=4).to_pandas().sort_values(
        ["user_id", "event_id"]).reset_index(drop=True)
    want = duckdb.sql("""
        SELECT user_id, event_id,
               CAST(NTILE(4) OVER (PARTITION BY user_id
                                   ORDER BY ts, event_id) AS BIGINT)
                   AS tile
        FROM pdf ORDER BY user_id, event_id
    """).df()
    pd.testing.assert_frame_equal(got, want, check_dtype=False)

    with pytest.raises(ValueError):
        ntile(ds, k=0)


@pytest.mark.parametrize("seed,nr", [(1, 1), (2, 3), (3, 8)])
@pytest.mark.usefixtures("ray_session")
def test_rolling_rows_randomized_differential(seed, nr):
    """Seed sweep for the ROWS frame vs DuckDB's native window across
    frame sizes (1 = pure current-row, 3, 8 > most key sizes)."""
    import duckdb
    import ray.data

    from jsschema_ray.stages.windows import rolling_rows_windows

    rng = np.random.default_rng(seed)
    n = 400
    pdf = pd.DataFrame({
        "user_id": rng.integers(0, 12, n).astype("int64"),
        "ts": pd.Timestamp("2024-01-01") + pd.to_timedelta(
            rng.integers(0, 30, n) * 5, unit="s"),
        "event_id": rng.permutation(n).astype("int64"),
        "value": rng.normal(0, 7, n).round(2),
    })
    ds = ray.data.from_pandas(pdf).repartition(5)
    got = rolling_rows_windows(ds, n_rows=nr
                               ).to_pandas().sort_values(
        ["user_id", "event_id"]).reset_index(drop=True)
    want = duckdb.sql(f"""
        SELECT user_id, event_id,
               CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) OVER w
                    AS BIGINT) AS w_sum_x100,
               CAST(COUNT(*) OVER w AS BIGINT) AS w_n
        FROM pdf
        WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
                     ROWS BETWEEN {nr - 1} PRECEDING AND CURRENT ROW)
        ORDER BY user_id, event_id
    """).df()
    pd.testing.assert_frame_equal(
        got[["user_id", "event_id", "w_sum_x100", "w_n"]], want,
        check_dtype=False,
    )


@pytest.mark.usefixtures("ray_session")
def test_window_ranks_tie_semantics():
    """row_number/rank/dense_rank/percent_rank/cume_dist vs DuckDB with
    heavy order-value ties (rank gaps after ties, dense_rank without;
    float columns must be BIT-identical — same small-int divisions)."""
    import duckdb
    import ray.data

    from jsschema_ray.stages.windows import window_ranks

    rng = np.random.default_rng(47)
    n = 500
    ints = pd.DataFrame({
        "user_id": rng.integers(0, 10, n).astype("int64"),
        "ts": pd.Timestamp("2024-01-01") + pd.to_timedelta(
            rng.integers(0, 12, n), unit="s"),  # heavy ties
        "event_id": rng.permutation(n).astype("int64"),
    })
    # float key: -0.0 and +0.0 are ONE SQL partition
    zeros = ints.assign(
        user_id=np.array([0.0, -0.0, 1.5])[ints["user_id"] % 3])
    for pdf in (ints, zeros):
        ds = ray.data.from_pandas(pdf).repartition(5)
        got = window_ranks(ds).to_pandas().sort_values(
            ["user_id", "event_id"]).reset_index(drop=True)
        want = duckdb.sql("""
            SELECT user_id, event_id,
                   CAST(ROW_NUMBER() OVER (PARTITION BY user_id
                        ORDER BY ts, event_id) AS BIGINT) AS row_number,
                   CAST(RANK() OVER (PARTITION BY user_id ORDER BY ts)
                        AS BIGINT) AS rank,
                   CAST(DENSE_RANK() OVER (PARTITION BY user_id ORDER BY ts)
                        AS BIGINT) AS dense_rank,
                   PERCENT_RANK() OVER (PARTITION BY user_id ORDER BY ts)
                        AS percent_rank,
                   CUME_DIST() OVER (PARTITION BY user_id ORDER BY ts)
                        AS cume_dist
            FROM pdf ORDER BY user_id, event_id
        """).df()
        pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                      check_exact=True)  # floats bit-equal


@pytest.mark.usefixtures("ray_session")
def test_first_last_per_key_ties():
    """first/last under the total order with heavy ts ties — the
    tiebreak decides both ends; single-event keys get first == last."""
    import duckdb
    import ray.data

    from jsschema_ray.stages.windows import first_last_per_key

    rng = np.random.default_rng(53)
    n = 300
    pdf = pd.DataFrame({
        "user_id": np.r_[rng.integers(0, 8, n - 1), [999]].astype("int64"),
        "ts": pd.Timestamp("2024-01-01") + pd.to_timedelta(
            rng.integers(0, 6, n), unit="s"),
        "event_id": rng.permutation(n).astype("int64"),
        "event_type": rng.choice(list("abcd"), n),
    })
    ds = ray.data.from_pandas(pdf).repartition(4)
    got = first_last_per_key(ds, "user_id", "ts", "event_id",
                             ["event_type"]
                             ).to_pandas().sort_values(
        "user_id").reset_index(drop=True)
    want = duckdb.sql("""
        WITH o AS (
            SELECT user_id, event_type,
                   ROW_NUMBER() OVER (PARTITION BY user_id
                       ORDER BY ts, event_id) AS rn,
                   COUNT(*) OVER (PARTITION BY user_id) AS cnt
            FROM pdf)
        SELECT user_id,
               MAX(CASE WHEN rn = 1 THEN event_type END)
                   AS first_event_type,
               MAX(CASE WHEN rn = cnt THEN event_type END)
                   AS last_event_type
        FROM o GROUP BY user_id ORDER BY user_id
    """).df()
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    one = got[got["user_id"] == 999]
    assert (one["first_event_type"] == one["last_event_type"]).all()


@pytest.mark.usefixtures("ray_session")
def test_lag_lead_boundaries_types_and_ties():
    """lag_lead vs DuckDB on tie-heavy data: NULL at key boundaries,
    string column moved via Arrow take (no numpy cast), offsets > 1."""
    import duckdb
    import ray.data

    from jsschema_ray.stages.windows import lag_lead

    rng = np.random.default_rng(31)
    n = 400
    pdf = pd.DataFrame({
        "user_id": rng.integers(0, 7, n).astype("int64"),
        "ts": pd.Timestamp("2024-01-01") + pd.to_timedelta(
            rng.integers(0, 9, n), unit="s"),
        "event_id": rng.permutation(n).astype("int64"),
        "event_type": rng.choice(["a", "b", "c", None], n),
    })
    ds = ray.data.from_pandas(pdf).repartition(5)
    got = lag_lead(ds, key="user_id", order="ts", tiebreak="event_id",
                   col="event_type", lags=(1, 3), leads=(2,)
                   ).to_pandas().sort_values(
        ["user_id", "event_id"]).reset_index(drop=True)
    want = duckdb.sql("""
        SELECT user_id, event_id,
               LAG(event_type, 1) OVER w AS lag1_event_type,
               LAG(event_type, 3) OVER w AS lag3_event_type,
               LEAD(event_type, 2) OVER w AS lead2_event_type
        FROM pdf WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
        ORDER BY user_id, event_id
    """).df()
    pd.testing.assert_frame_equal(got, want, check_dtype=False)

    import pytest as _pytest

    with _pytest.raises(ValueError):
        lag_lead(ds, key="user_id", order="ts", tiebreak="event_id",
                 col="event_type", lags=(0,))


@pytest.mark.usefixtures("ray_session")
def test_funnel_stages_greedy_chain_semantics():
    """funnel_stages: strictly-after matching, ties broken by tiebreak,
    missing middle stage stops the chain, layout-independent."""
    import ray.data

    from jsschema_ray.stages.windows import funnel_stages

    base = pd.Timestamp("2024-01-01")
    pdf = pd.DataFrame({
        # u1: full funnel; u2: click BEFORE view (chain stops at 1);
        # u3: view+click same ts (tiebreak orders) then purchase;
        # u4: no view at all -> reached 0
        "user_id": [1, 1, 1, 2, 2, 3, 3, 3, 4],
        "ts": base + pd.to_timedelta([0, 1, 2, 1, 0, 5, 5, 9, 0],
                                     unit="s"),
        "event_id": pd.array([10, 11, 12, 20, 21, 30, 31, 32, 40],
                             dtype="int64"),
        "event_type": ["view", "click", "purchase",
                       "view", "click",
                       "view", "click", "purchase",
                       "click"],
    })
    outs = []
    for blocks in (1, 3):
        ds = ray.data.from_pandas(pdf).repartition(blocks)
        out = funnel_stages(ds, key="user_id", order="ts",
                            tiebreak="event_id", stage_col="event_type",
                            stages=["view", "click", "purchase"]) \
            .to_pandas() \
            .sort_values("user_id").reset_index(drop=True)
        outs.append(out)
    assert outs[0].equals(outs[1])
    o = outs[0]
    assert o.reached.tolist() == [3, 1, 3, 0]
    assert o.match1_event_id.tolist()[0:3] == [10, 20, 30]
    # u3: click at SAME ts as view but larger event_id -> matches
    assert o.match2_event_id[2] == 31
    assert pd.isna(o.match2_event_id[1]) and pd.isna(o.match3_event_id[1])
    assert pd.isna(o.match1_event_id[3])


def test_cohort_retention_semantics(ray_session):
    """cohort_retention: cohort = first epoch week per user, one count
    per distinct (user, week); duplicate events collapse; NULL user/ts
    drop; negative epochs raise."""
    import pandas as pd
    import ray.data

    from jsschema_ray.stages.windows import cohort_retention

    WK = 604_800_000_000
    base = pd.Timestamp("2024-01-01")  # well past 1970

    def at(week, us=0):
        return base + pd.to_timedelta(week * WK + us, unit="us")

    pdf = pd.DataFrame({
        "user_id": [1, 1, 1, 1, 2, 2, 3, None, 4],
        "ts": [at(0), at(0, 5), at(2), at(2, 9), at(1), at(3),
               at(1), at(0), pd.NaT],
    })
    ds = ray.data.from_pandas(pdf).repartition(3)
    got = cohort_retention(ds, "user_id", "ts") \
        .to_pandas().sort_values(["cohort_week", "offset_weeks"]) \
        .reset_index(drop=True)
    base_wk = int(base.value // 1000 // WK)
    # user1: cohort wk0, offsets {0, 2}; user2: cohort wk1, offsets
    # {0, 2}; user3: cohort wk1, offset {0}; NULL rows drop
    want = pd.DataFrame({
        "cohort_week": [base_wk, base_wk, base_wk + 1, base_wk + 1],
        "offset_weeks": [0, 2, 0, 2],
        "n_users": [1, 1, 2, 1],
    })
    pd.testing.assert_frame_equal(
        got.astype({"cohort_week": "int64", "offset_weeks": "int64",
                    "n_users": "int64"}), want)

    neg = pd.DataFrame({"user_id": [1],
                        "ts": [pd.Timestamp("1960-01-01")]})
    with pytest.raises(Exception):
        cohort_retention(ray.data.from_pandas(neg), "user_id",
                         "ts").materialize()


def test_hopping_distinct_semantics(ray_session):
    """hopping_distinct: each event counts in length/hop windows, a key
    active twice in one window counts once, NULL ts/key drop, layout-
    independent."""
    import pandas as pd
    import ray.data

    from jsschema_ray.stages.windows import hopping_distinct

    HOUR = 3_600_000_000
    base = pd.Timestamp("2024-03-01")

    def at(h, us=0):
        return base + pd.to_timedelta(h * HOUR + us, unit="us")

    pdf = pd.DataFrame({
        "user_id": [1, 1, 2, 1, None, 3],
        "ts": [at(0), at(0, 7), at(0), at(1), at(1), pd.NaT],
    })
    base_h = int(base.value // 1000 // HOUR)
    for blocks in (1, 4):
        ds = ray.data.from_pandas(pdf).repartition(blocks)
        got = hopping_distinct(ds, "ts", "user_id", length_s=7200,
                               hop_s=3600) \
            .to_pandas().sort_values("window_start") \
            .reset_index(drop=True)
        # hour0 events -> windows (h0-1, h0); hour1 -> (h0, h1):
        # w(h0-1): {1,2}; w(h0): {1,2} U {1} = {1,2}; w(h1): {1}
        want = pd.DataFrame({
            "window_start": [base_h - 1, base_h, base_h + 1],
            "n_distinct": [2, 2, 1],
        })
        pd.testing.assert_frame_equal(
            got.astype({"window_start": "int64",
                        "n_distinct": "int64"}), want)


def test_transition_counts_semantics(ray_session):
    """transition_counts: per-key LAG pairs under the (order, tiebreak)
    total order, boundary rows drop, NULL values drop, layout-
    independent; equals the pandas shift reference."""
    import pandas as pd
    import ray.data

    from jsschema_ray.stages.windows import transition_counts

    rng = np.random.default_rng(37)
    n = 600
    pdf = pd.DataFrame({
        "k": rng.integers(0, 40, n),
        "o": rng.integers(0, 1000, n),
        "tb": np.arange(n, dtype=np.int64),
        "v": rng.choice(["A", "B", "C", None], n, p=[.4, .3, .2, .1]),
    })

    def serial():
        s = pdf.sort_values(["k", "o", "tb"])
        prev = s.groupby("k")["v"].shift(1)
        d = pd.DataFrame({"from_value": prev, "to_value": s.v}).dropna()
        return d.groupby(["from_value", "to_value"]).size() \
            .rename("n_transitions").reset_index() \
            .sort_values(["from_value", "to_value"]).reset_index(drop=True)

    want = serial()
    for blocks in (1, 5):
        ds = ray.data.from_pandas(pdf).repartition(blocks)
        got = transition_counts(ds, "k", "o", "tb", "v").to_pandas() \
            .sort_values(["from_value", "to_value"]) \
            .reset_index(drop=True)
        pd.testing.assert_frame_equal(
            got.astype({"n_transitions": "int64"}), want)
