import pytest

from outersplit import (
    cli,
    k4,
    outerplane_face,
    parse_rot,
    render,
    replay,
    serialize_rot,
    solve_osn,
    with_outer_face,
)
from outersplit.cli import main

BOWTIE = "5 6\na: b x\nb: x a\nc: d x\nd: x c\nx: b a d c\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_k4(tmp_path):
    path = tmp_path / "k4.rot"
    path.write_text(serialize_rot(k4()))
    return str(path)


def test_gen_split_verify_pipeline(tmp_path, capsys):
    rot = tmp_path / "g.rot"
    seq = tmp_path / "g.seq"
    out = tmp_path / "g.split.rot"

    code, _, _ = run(capsys, "gen", "k4", "-o", str(rot))
    assert code == 0
    code, stdout, _ = run(capsys, "osn", str(rot), "--seq", str(seq))
    assert code == 0
    assert stdout.splitlines()[0] == "osn 1"
    code, _, _ = run(capsys, "split", "--apply", str(rot), str(seq),
                     "-o", str(out))
    assert code == 0
    code, stdout, _ = run(capsys, "verify", str(out))
    assert code == 0
    assert "outerplane true" in stdout


def test_osn_plain_output(tmp_path, capsys):
    code, out, _ = run(capsys, "osn", write_k4(tmp_path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "osn 1"
    assert lines[1] == "cover 0 1"
    assert len(lines) == 3 and lines[2].startswith("SPLIT a 0 1 -> ")


def test_osn_porcelain(tmp_path, capsys):
    code, out, _ = run(capsys, "osn", write_k4(tmp_path), "--porcelain")
    assert code == 0
    lines = out.splitlines()
    assert "osn=1" in lines
    assert "cover=0,1" in lines
    assert any(l.startswith("split=SPLIT a 0 1") for l in lines)


def test_osn_zero_splits(tmp_path, capsys):
    run(capsys, "gen", "cycle", "-n", "6", "-o", str(tmp_path / "c.rot"))
    code, out, _ = run(capsys, "osn", str(tmp_path / "c.rot"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "osn 0"
    assert len(lines) == 2  # no split lines


def drawings(g):
    """The bytes osn --svg writes for g: the drawing of g, then that of
    its split result with its all-incident face outer."""
    final = replay(g, solve_osn(g).splits)
    return (render(g).encode("utf-8"),
            render(with_outer_face(final, outerplane_face(final)))
            .encode("utf-8"))


def test_osn_svg(tmp_path, capsys):
    before = tmp_path / "before.svg"
    after = tmp_path / "after.svg"
    code, _, _ = run(capsys, "osn", write_k4(tmp_path),
                     "--svg", str(before), str(after))
    assert code == 0
    assert (before.read_bytes(), after.read_bytes()) == drawings(k4())
    assert before.read_text().startswith("<svg")


def test_osn_svg_with_names_outside_ascii(tmp_path, capsys):
    text = "4 6\né: a<b a&b d\na<b: a&b é d\na&b: é a<b d\nd: é a&b a<b\n"
    rot = tmp_path / "e.rot"
    rot.write_text(text, encoding="utf-8")
    before = tmp_path / "before.svg"
    after = tmp_path / "after.svg"
    code, _, _ = run(capsys, "osn", str(rot),
                     "--svg", str(before), str(after))
    assert code == 0
    assert (before.read_bytes(), after.read_bytes()) == drawings(
        parse_rot(text))
    for path in (before, after):
        assert "é" in path.read_text(encoding="utf-8")


def test_osn_svg_dash_is_stdout(tmp_path, capsys):
    rot = write_k4(tmp_path)
    after = tmp_path / "after.svg"
    _, report, _ = run(capsys, "osn", rot)
    code, out, _ = run(capsys, "osn", rot, "--svg", "-", str(after))
    assert code == 0
    assert out == report + render(k4())
    assert after.read_bytes() == drawings(k4())[1]


def test_osn_svg_both_drawings_to_stdout(tmp_path, capsys):
    rot = write_k4(tmp_path)
    _, report, _ = run(capsys, "osn", rot)
    code, out, _ = run(capsys, "osn", rot, "--svg", "-", "-")
    assert code == 0
    before, after = drawings(k4())
    assert out.encode("utf-8") == report.encode("utf-8") + before + after


def test_osn_svg_into_a_missing_directory_fails_by_name(tmp_path, capsys):
    missing = tmp_path / "missing" / "before.svg"
    after = tmp_path / "after.svg"
    code, _, err = run(capsys, "osn", write_k4(tmp_path),
                       "--svg", str(missing), str(after))
    assert code == 2
    assert err.startswith(f"error: cannot write {missing}")
    # BEFORE is written first, so its failure leaves AFTER unwritten
    assert not after.exists()


def test_verify_negative(tmp_path, capsys):
    code, out, _ = run(capsys, "verify", write_k4(tmp_path), "--porcelain")
    assert code == 0
    assert "outerplane=false" in out
    assert "face=" not in out
    assert "n=4" in out and "m=6" in out and "faces=4" in out


def test_gen_to_stdout_and_params(tmp_path, capsys):
    code, out, _ = run(capsys, "gen", "random_biconnected",
                       "-n", "7", "-m", "10", "--seed", "3")
    assert code == 0
    g = parse_rot(out)
    assert g.n == 7 and g.m == 10


def test_bounds_solve_porcelain(tmp_path, capsys):
    rot = tmp_path / "o.rot"
    run(capsys, "gen", "octahedron", "-o", str(rot))
    code, out, _ = run(capsys, "bounds", str(rot), "--solve", "--porcelain")
    assert code == 0
    lines = out.splitlines()
    assert "n=6" in lines
    assert "min_degree=4" in lines
    assert "lower_generic=3/2" in lines
    assert "upper=5/3" in lines
    assert "osn=2" in lines
    assert any(l.startswith("violation=advisory:") for l in lines)


def test_bounds_without_solve(tmp_path, capsys):
    code, out, _ = run(capsys, "bounds", write_k4(tmp_path))
    assert code == 0
    assert "osn           -" in out
    assert "violation" not in out


def test_bounds_family_depth(tmp_path, capsys):
    rot = tmp_path / "t1.rot"
    run(capsys, "gen", "complete_3tree", "-d", "1", "-o", str(rot))
    code, out, _ = run(capsys, "bounds", str(rot), "--solve",
                       "--depth", "1", "--porcelain")
    assert code == 0
    assert "lower_family=2" in out.splitlines()
    assert "osn=2" in out.splitlines()
    assert "violation" not in out


def test_reduce_lists_correspondence(tmp_path, capsys):
    code, out, _ = run(capsys, "reduce", write_k4(tmp_path))
    assert code == 0
    notes = [l for l in out.splitlines() if l.startswith("# face")]
    assert len(notes) == 4
    assert sorted(l.split()[-1] for l in notes) == ["a", "b", "c", "d"]
    # the emitted graph is itself a valid .rot payload
    g = parse_rot(out)
    assert g.n == 10 and g.m == 12


def test_oracle_agreement(tmp_path, capsys):
    code, out, _ = run(capsys, "oracle", write_k4(tmp_path))
    assert code == 0
    lines = out.splitlines()
    assert "cfc 2" in lines
    assert "fvs 2" in lines
    assert "osn 1" in lines
    assert "vc 3" in lines
    assert "agree fvs==cfc yes" in lines
    assert "agree osn==cfc-1 yes" in lines
    assert "agree extract==cover yes" in lines


def test_oracle_porcelain_and_budget(tmp_path, capsys):
    code, out, _ = run(capsys, "oracle", write_k4(tmp_path),
                       "--porcelain", "--k-max", "0")
    assert code == 0
    lines = out.splitlines()
    assert "cfc=2" in lines
    assert "osn=none" in lines
    assert "agree_fvs=true" in lines
    assert "agree_osn=skipped" in lines
    assert "agree_extract=true" in lines


def test_oracle_negative_budget_is_a_domain_error(tmp_path, capsys):
    code, out, err = run(capsys, "oracle", write_k4(tmp_path),
                         "--k-max", "-1")
    assert code == 1
    assert out == ""
    assert err.startswith("error: InfeasibleParameters")
    assert "nonnegative" in err


def test_oracle_reports_cfc_skipped_above_the_cap(tmp_path, capsys):
    rot = tmp_path / "t14.rot"
    run(capsys, "gen", "random_triangulation", "-n", "14", "--seed", "1",
        "-o", str(rot))
    code, out, err = run(capsys, "oracle", str(rot))
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert "cfc skipped" in lines
    assert "fvs 7" in lines
    assert "agree fvs==cfc skipped" in lines
    assert "agree osn==cfc-1 skipped" in lines
    code, out, _ = run(capsys, "oracle", str(rot), "--porcelain")
    assert code == 0
    lines = out.splitlines()
    assert "cfc=skipped" in lines
    assert "agree_fvs=skipped" in lines


def test_oracle_reports_fvs_skipped_on_a_bridge(tmp_path, capsys):
    # a bridge is a self-loop of the dual: min_fvs raises
    # SelfLoopPresent, and the oracle used to stop after its cfc row
    rot = tmp_path / "path.rot"
    rot.write_text("3 2\na: b\nb: a c\nc: b\n")
    code, out, err = run(capsys, "oracle", str(rot))
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "cfc 1", "fvs skipped", "osn 0", "agree fvs==cfc skipped",
        "agree osn==cfc-1 yes", "agree extract==cover skipped"]
    code, out, err = run(capsys, "oracle", str(rot), "--porcelain")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert "fvs=skipped" in lines
    assert "agree_fvs=skipped" in lines


def prism(k):
    """Rotation-system text of the cubic prism on an outer k-cycle o0..
    and an inner k-cycle i0.., with o_j joined to i_j."""
    lines = [f"{2 * k} {3 * k}"]
    for j in range(k):
        nxt, prv = (j + 1) % k, (j - 1) % k
        lines.append(f"o{j}: o{nxt} o{prv} i{j}")
        lines.append(f"i{j}: i{nxt} o{j} i{prv}")
    return "\n".join(lines) + "\n"


def test_oracle_round_trips_vertex_covers_on_cubic_graphs(tmp_path,
                                                          capsys):
    # a minimum vertex cover of K4 (3 vertices) maps to a minimum cover
    # of the subdivided dual (3 faces) and back to itself
    code, out, _ = run(capsys, "oracle", write_k4(tmp_path))
    assert code == 0
    assert "agree vc==cfc(D*) yes" in out.splitlines()
    code, out, _ = run(capsys, "oracle", write_k4(tmp_path), "--porcelain")
    assert code == 0
    assert "agree_vc=true" in out.splitlines()
    # 22 vertices are above the vertex cover enumeration cap
    rot = tmp_path / "prism.rot"
    rot.write_text(prism(11))
    code, out, err = run(capsys, "oracle", str(rot), "--porcelain")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert "vc=skipped" in lines
    assert "agree_vc=skipped" in lines
    # the octahedron is not cubic, so neither row appears
    rot = tmp_path / "oct.rot"
    run(capsys, "gen", "octahedron", "-o", str(rot))
    code, out, _ = run(capsys, "oracle", str(rot), "--porcelain")
    assert code == 0
    assert not [line for line in out.splitlines()
                if line.startswith(("vc=", "agree_vc="))]


def test_oracle_skips_extract_when_not_biconnected(tmp_path, capsys):
    rot = tmp_path / "bowtie.rot"
    rot.write_text(BOWTIE)
    code, out, _ = run(capsys, "oracle", str(rot), "--porcelain")
    assert code == 0
    assert "agree_extract=skipped" in out.splitlines()
    code, out, _ = run(capsys, "oracle", str(rot))
    assert "agree extract==cover skipped" in out.splitlines()


def test_split_with_non_ascii_digits_is_a_parse_error(tmp_path, capsys):
    seq = tmp_path / "bad.seq"
    seq.write_text("SPLIT a ² 1 -> a.1 a.2\n", encoding="utf-8")
    code, out, err = run(capsys, "split", "--apply", write_k4(tmp_path),
                         str(seq))
    assert code == 2
    assert out == ""
    assert err.startswith("parse error:")


def test_non_utf8_input_is_a_parse_error(tmp_path, capsys):
    rot = tmp_path / "bad.rot"
    rot.write_bytes(b"3 3\na: b c\nb: c a\nc: a b\xff\n")
    code, out, err = run(capsys, "verify", str(rot))
    assert code == 2
    assert out == ""
    assert err.startswith("parse error: line 4:")
    assert "0xff" in err
    seq = tmp_path / "bad.seq"
    seq.write_bytes(b"SPLIT a 0 1 -> a.1 a.2\r\n\xfe\n")
    code, out, err = run(capsys, "split", "--apply", write_k4(tmp_path),
                         str(seq))
    assert code == 2
    assert out == ""
    assert err.startswith("parse error: line 2:")
    assert "0xfe" in err


def test_a_repeated_neighbor_is_a_parse_error(tmp_path, capsys):
    rot = tmp_path / "repeat.rot"
    rot.write_text("2 1\na: b b\nb: a\n")
    code, out, err = run(capsys, "osn", str(rot))
    assert code == 2
    assert out == ""
    assert err == "parse error: line 2: vertex 'a' repeats a neighbor\n"


def test_missing_file_is_a_usage_error(tmp_path, capsys):
    code, _, err = run(capsys, "verify", str(tmp_path / "nope.rot"))
    assert code == 2
    assert err.startswith("parse error:")


def test_domain_error_exit_code(tmp_path, capsys):
    rot = tmp_path / "bowtie.rot"
    rot.write_text(BOWTIE)
    code, _, err = run(capsys, "osn", str(rot))
    assert code == 1
    assert err.startswith("error: NotBiconnected")


@pytest.mark.parametrize("seq, first_line", [
    ("SPLIT a 0 0 -> a.1 a.2\n",
     "error: ReplayFailure: step 0 (SplitOp(vertex='a', face_a=0, face_b=0, "
     "copy_1='a.1', copy_2='a.2')): split needs two distinct faces, got 0 "
     "twice"),
    ("SPLIT a 0 1 -> x y\n",
     "error: ReplayFailure: step 0: expected copies x/y, got a.1/a.2"),
])
def test_bad_split_sequences_name_the_step(tmp_path, capsys, seq,
                                           first_line):
    path = tmp_path / "bad.seq"
    path.write_text(seq)
    out_path = tmp_path / "out.rot"
    code, out, err = run(capsys, "split", "--apply", write_k4(tmp_path),
                         str(path), "-o", str(out_path))
    assert code == 1
    assert out == ""
    assert err.splitlines()[0] == first_line
    assert not out_path.exists()


@pytest.mark.parametrize("verb", ["verify", "bounds", "oracle", "osn"])
@pytest.mark.parametrize("text", ["0 0\n", "1 0\na:\n"])
def test_edgeless_graph_is_a_domain_error(tmp_path, capsys, verb, text):
    rot = tmp_path / "edgeless.rot"
    rot.write_text(text)
    code, out, err = run(capsys, verb, str(rot))
    assert code == 1
    assert out == ""
    assert err.startswith("error: NotPlanar")
    assert "no edges" in err


def test_split_requires_apply(tmp_path, capsys):
    rot = write_k4(tmp_path)
    seq = tmp_path / "empty.seq"
    seq.write_text("")
    code, _, err = run(capsys, "split", rot, str(seq))
    assert code == 2
    assert "--apply" in err


def test_unknown_verb_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_bounds_negative_depth_is_a_domain_error(tmp_path, capsys):
    code, out, err = run(capsys, "bounds", write_k4(tmp_path),
                         "--depth", "-3")
    assert code == 1
    assert out == ""
    assert err.startswith("error: InfeasibleParameters")
    assert "nonnegative" in err


def test_bounds_depth_must_fit_the_graph(tmp_path, capsys):
    rot = write_k4(tmp_path)
    code, out, _ = run(capsys, "bounds", rot, "--depth", "0", "--porcelain")
    assert code == 0
    assert "lower_family=0" in out.splitlines()
    for depth in ("3", "10000", "100000000"):
        code, out, err = run(capsys, "bounds", rot, "--solve",
                             "--depth", depth)
        assert code == 1, depth
        assert out == ""
        assert err.startswith("error: InfeasibleParameters"), depth
        assert "Traceback" not in err


def test_bounds_checks_depth_before_it_solves(tmp_path, capsys,
                                             monkeypatch):
    def no_solve(g):
        raise AssertionError("solved before --depth was checked")

    monkeypatch.setattr(cli, "solve_osn", no_solve)
    code, out, err = run(capsys, "bounds", write_k4(tmp_path), "--solve",
                         "--depth", "3")
    assert code == 1
    assert out == ""
    assert err.startswith("error: InfeasibleParameters")


def test_bounds_solve_with_a_fitting_depth(tmp_path, capsys):
    code, out, _ = run(capsys, "bounds", write_k4(tmp_path), "--solve",
                       "--depth", "0", "--porcelain")
    assert code == 0
    assert "osn=1" in out.splitlines()
    assert "lower_family=0" in out.splitlines()


def test_gen_above_the_size_cap_is_a_domain_error(tmp_path, capsys):
    out_path = tmp_path / "t.rot"
    for argv in (("cycle", "-n", "100000000"), ("fan", "-n", "29528"),
                 ("random_triangulation", "-n", "29528"),
                 ("random_biconnected", "-n", "29528", "-m", "40000")):
        code, out, err = run(capsys, "gen", *argv, "-o", str(out_path))
        assert code == 1, argv
        assert out == ""
        assert err.startswith("error: CapExceeded"), argv
        assert not out_path.exists()


def test_osn_above_the_width_cap_is_a_domain_error(tmp_path, capsys):
    # the dual has 3,952 nodes, degrees up to 4 and min-fill
    # elimination width 10
    path = str(tmp_path / "b2000.rot")
    run(capsys, "gen", "random_biconnected", "-n", "2000", "-m", "5950",
        "--seed", "0", "-o", path)
    code, out, err = run(capsys, "osn", path)
    assert code == 1
    assert out == ""
    assert err.startswith("error: CapExceeded: a dual of 3952 nodes")


def test_gen_negative_seed_is_a_domain_error(tmp_path, capsys):
    out_path = tmp_path / "t.rot"
    for argv in (("random_triangulation", "-n", "12"),
                 ("random_biconnected", "-n", "12", "-m", "16")):
        code, out, err = run(capsys, "gen", *argv, "--seed", "-3",
                             "-o", str(out_path))
        assert code == 1, argv
        assert out == ""
        assert err.startswith("error: InfeasibleParameters"), argv
        assert "nonnegative" in err
        assert not out_path.exists()


def test_gen_with_a_parameter_the_family_does_not_take(tmp_path, capsys):
    out_path = tmp_path / "t.rot"
    for argv, name in ((("k4", "-n", "3"), "n"),
                       (("random_triangulation", "-n", "10", "-m", "5"), "m"),
                       (("cycle", "-n", "6", "-d", "2"), "d")):
        code, out, err = run(capsys, "gen", *argv, "-o", str(out_path))
        assert code == 1, argv
        assert out == ""
        assert err.startswith("error: InfeasibleParameters"), argv
        assert f"takes no parameter '{name}'" in err
        assert not out_path.exists()


def test_unwritable_outputs_are_usage_errors(tmp_path, capsys):
    rot = write_k4(tmp_path)
    seq = tmp_path / "k4.seq"
    run(capsys, "osn", rot, "--seq", str(seq))
    missing = tmp_path / "no" / "such" / "dir"
    for argv in (
            ("gen", "k4", "-o", str(missing / "x.rot")),
            ("osn", rot, "--seq", str(missing / "k4.seq")),
            ("osn", rot, "--svg", str(missing / "a.svg"),
             str(tmp_path / "b.svg")),
            ("osn", rot, "--svg", str(tmp_path / "a.svg"),
             str(missing / "b.svg")),
            ("split", "--apply", rot, str(seq), "-o", str(missing / "s.rot")),
            ("reduce", rot, "-o", str(missing / "r.rot"))):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith(f"error: cannot write {missing}"), argv
        assert "Traceback" not in err
