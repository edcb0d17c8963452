"""The public surface: why each name in pfrac.__all__ exists.

Every exported name is reached from a command (`pfrac <command>`) or an
acceptance criterion, or it is an oracle that a named test holds a production
route against.  A new export has to add its reason here.
"""

import ast
import re
from pathlib import Path

import pfrac

# name -> "pfrac <command>" / "criterion <n>" (what reaches it, and through
# what), or "oracle of <route>: <test module>::<test>"
SURFACE = {
    # precision
    "HPComplex": "pfrac residues: the record of every complex result",
    "HPReal": "pfrac table: the record of every real result",
    "PrecisionLossError": "pfrac verify: exit code 5 of every command",
    "default_precision": "pfrac zeros: the working precision of every command",
    "set_default_precision": "pfrac --precision-bits",
    "tolerance": "criterion 1: find_zero's residual gate 2^(16-p)",
    # sequences
    "bernoulli": "criterion 9: exact B_{2l}/(2l)! in the Euler-Maclaurin main term",
    "stirling2": "oracle of _cot_weights: test_sine_products::test_cot_weights_match_stirling2",
    # dilog
    "BranchLabel": "pfrac zeros: the admissible branches (A, B)",
    "ConvergenceError": "pfrac verify: exit code 4 of every command",
    "DilogZero": "pfrac zeros: find_zero's result",
    "SaddlePoint": "criterion 2: find_saddle's result",
    "clausen": "oracle of _cl2_float: test_sine_products::test_cl2_float_matches_clausen",
    "find_saddle": "criterion 2",
    "find_zero": "criterion 1",
    "p_d": "criterion 11: path_positivity_check",
    "q_func": ("oracle of _a3_node and _a3_value: "
               "test_asymptotics::test_a3_integrand_matches_its_pieces"),
    # sine_products
    "em_remainder": ("oracle of em_remainder_scan: "
                     "test_sine_products::test_em_remainder_scan_matches_brute_force"),
    "em_remainder_scan": "criterion 9",
    "psi": "criterion 8",
    "psi_table": "pfrac psi",
    "t_l_bound": "oracle of em_remainder: test_sine_products::test_em_remainder_below_rigorous_bound",
    # residues
    "FamilySelector": "criterion 7: the family-D reference sum",
    "FareyFraction": "pfrac residues: farey's poles",
    "a1_sum": "pfrac a1",
    "c01l_exact": "criterion 6: the reference column of tables c011 and c014",
    "c_from_q": "oracle of c01l_exact: test_residues::test_c01l_cross_checks_pole_expansion",
    "family_sum": "criterion 7",
    "farey": "pfrac residues",
    "p_restricted": "pfrac identity: the exact side of the residue-sum identity",
    "principal_part": "criterion 4: reconstruct_product",
    "q01_exact": "oracle of q_general at 0/1: test_residues::test_q01_exact_matches_general",
    "q_general": "oracle of _folded_sum: test_residues::test_family_sum_matches_unshared_residues",
    "reconstruct_product": "criterion 4",
    "residue_report": "pfrac residues",
    "residue_sum": "pfrac identity",
    # asymptotics
    "Expansion": "pfrac expansion: the JSON it prints",
    "a3_quadrature": "criterion 11",
    "b_coeffs": "pfrac expansion a1",
    "c_coeffs": "pfrac expansion c01",
    "decay_exponent": "criterion 10",
    "evaluate_expansion": "pfrac table",
    "family_leading": "pfrac expansion D",
    "path_positivity_check": "criterion 11",
    "saddle_path": "criterion 11: the contour of a3_quadrature",
    "u_weight": "oracle of _Frame.weights: test_asymptotics::test_frame_weights_match_scalar_oracles",
    "v_func": "oracle of a3_quadrature: test_asymptotics::test_a3_label_holds_against_tanh_sinh",
    "vstar_weight": ("oracle of _Frame.weights: "
                     "test_asymptotics::test_frame_weights_match_scalar_oracles"),
}


def test_every_export_states_why_it_exists():
    assert set(SURFACE) == set(pfrac.__all__)
    assert len(pfrac.__all__) == len(set(pfrac.__all__))


def test_every_reason_names_a_command_a_criterion_or_an_oracle_test():
    for name, why in SURFACE.items():
        assert why.startswith(("pfrac ", "criterion ", "oracle of ")), name


def test_every_oracle_is_used_by_the_test_it_names():
    for name, why in SURFACE.items():
        if why.startswith("oracle of "):
            module, test = why.rsplit(": ", 1)[1].split("::")
            source = (Path(__file__).parent / f"{module}.py").read_text()
            body = next(ast.get_source_segment(source, node) for node in ast.parse(source).body
                        if isinstance(node, ast.FunctionDef) and node.name == test)
            assert f"{name}(" in body, (name, test)


def test_fixed_point_conversions_live_in_pfrac_fixed():
    # the fixed-point format (x + i y) 2^-F has one home: every other module
    # converts through fixed.fix and fixed.unfix instead of hand-rolling them
    patterns = ("int(mpmath.ldexp(", "mpc(mpf((")
    for path in Path(pfrac.__file__).parent.glob("*.py"):
        found = [p for p in patterns if p in path.read_text()]
        assert found == (list(patterns) if path.name == "fixed.py" else []), path.name


def test_mpmath_power_series_serve_only_the_asymptotics():
    # pfrac.series (power series on mpmath numbers) has one user: the saddle
    # expansions, which read its product and exponential alone; its
    # reciprocal and log are test oracles, and every Laurent inverse runs on
    # fixed-point integers
    pattern = re.compile(r"from \.series import|from pfrac\.series import|import pfrac\.series")
    for path in Path(pfrac.__file__).parent.glob("*.py"):
        found = bool(pattern.search(path.read_text()))
        assert found == (path.name == "asymptotics.py"), path.name
    tree = ast.parse((Path(pfrac.__file__).parent / "asymptotics.py").read_text())
    names = [a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
             and n.module == "series" for a in n.names]
    assert sorted(names) == ["exp", "mul"]


def test_sigma_is_an_integer_everywhere():
    # sigma has one domain, the integers of the paper: no module keeps a
    # branch for a real or complex sigma or rounds one to an integer
    pattern = re.compile(r"isinstance\(sigma, int\)|mpmathify\(sigma\)|\bint\(sigma\)")
    for path in Path(pfrac.__file__).parent.glob("*.py"):
        assert not pattern.findall(path.read_text()), path.name


def test_bernoulli_table_lives_in_pfrac_sequences():
    # B_{2i}/(2i)! past the exact Fractions has one home,
    # sequences.bernoulli_table, and no module takes them from zeta
    for path in Path(pfrac.__file__).parent.glob("*.py"):
        text = path.read_text()
        tables = re.findall(r"def (\w*bernoulli\w*table)\(", text)
        assert tables == (["bernoulli_table"] if path.name == "sequences.py" else []), path.name
        assert "mpmath.zeta(" not in text, path.name


def test_pole_phases_live_in_sine_products_phase():
    # every phase e^{i pi M/(2k)} of the poles, and every step e^{i pi h/k}
    # of the sine recurrence, is a power of one e^{i pi/(2k)}:
    # mpmath.expjpi is called only for its squares
    want = {"sine_products.py": {"_phase_squares"}}
    for path in Path(pfrac.__file__).parent.glob("*.py"):
        text = path.read_text()
        callers = {node.name for node in ast.walk(ast.parse(text))
                   if isinstance(node, ast.FunctionDef)
                   and "mpmath.expjpi(" in ast.get_source_segment(text, node)}
        assert callers == want.get(path.name, set()), path.name
        assert text.count("mpmath.expjpi(") == len(callers), path.name


def test_one_rerun_rule_lives_in_pfrac_precision():
    # a value short of its label is rerun by one rule, precision.rerun_short:
    # PrecisionLossError is defined and raised there and nowhere else; no
    # module doubles a precision in a loop, and each cancelling sum's check
    # calls the helper
    doubling = re.compile(r"(prec|wp|guard)\w*\s*(\*=|<<=)"
                          r"|(prec|wp|guard)\w*\s*=.*(<<|\b2 \*|\* 2\b)")
    raisers = {"precision.py": {"rerun_short"}}
    checks = {"residues.py": {"_q_fixed", "_oracle"},
              "sine_products.py": {"_em_checked", "_g_sum", "_g_sweep"}}
    for path in Path(pfrac.__file__).parent.glob("*.py"):
        text = path.read_text()
        functions = {node.name: ast.get_source_segment(text, node)
                     for node in ast.walk(ast.parse(text)) if isinstance(node, ast.FunctionDef)}
        assert ("class PrecisionLossError" in text) == (path.name == "precision.py"), path.name
        want = raisers.get(path.name, set())
        assert text.count("raise PrecisionLossError(") == len(want), path.name
        assert {name for name, body in functions.items()
                if "raise PrecisionLossError(" in body} == want, path.name
        assert not doubling.search(text), path.name
        for name in checks.get(path.name, ()):
            assert "rerun_short(" in functions[name], name


def _calls(text):
    """{function: the plain names it calls} for every function in `text`."""
    return {node.name: {c.func.id for c in ast.walk(node)
                        if isinstance(c, ast.Call) and isinstance(c.func, ast.Name)}
            for node in ast.walk(ast.parse(text)) if isinstance(node, ast.FunctionDef)}


def _assert_callers(callers, text, module):
    """Each callee of `callers` is called in `module` by exactly the functions
    that `callers[callee]` lists for it."""
    calls = _calls(text)
    for callee, want in callers.items():
        found = {name for name, called in calls.items() if callee in called}
        assert found == want.get(module, set()), (callee, module)


def test_one_sum_over_g_l():
    # sum_l g_l(z)/n^{2l-1} has one implementation, sine_products._g_sum:
    # v (the contour integrand and v_func) and the Euler-Maclaurin main term
    # call it, the single g_l of _g_sweep serve only the u weights, and no
    # module divides by a power n^{2l-1} of its own
    callers = {"_g_sum": {"asymptotics.py": {"_v_at"}, "sine_products.py": {"_em_main_log"}},
               "_g_sweep": {"asymptotics.py": {"_u_scalar"}}}
    divide = re.compile(r"/\s*\w+\s*\*\*\s*\(2\s*\*\s*\w+\s*-\s*1\)")
    for path in Path(pfrac.__file__).parent.glob("*.py"):
        text = path.read_text()
        _assert_callers(callers, text, path.name)
        assert not divide.search(text), path.name


def test_one_rotated_evaluation_per_pole_value():
    # a pole polynomial is evaluated, rotated and checked in one place,
    # residues._q_fixed: the conversion Q -> C takes one _q_fixed per order
    # on differenced powers, with no phase or binomial of its own, and the
    # only other phase of the residues is reconstruct_product's pole
    calls = _calls((Path(pfrac.__file__).parent / "residues.py").read_text())
    assert {name for name, called in calls.items() if "_phase" in called} == {
        "_q_fixed", "reconstruct_product"}
    assert "_q_fixed" in calls["_c_from_q_all"]
    assert not calls["_c_from_q_all"] & {"_phase", "comb"}


def test_no_function_imports():
    # every import of pfrac sits at the top of its module: a function-level
    # import would hide a cycle between modules
    for path in Path(pfrac.__file__).parent.glob("*.py"):
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found = [n.lineno for n in ast.walk(func)
                         if isinstance(n, (ast.Import, ast.ImportFrom))]
                assert not found, (path.name, func.name, found)


def test_one_closed_form_of_cot_and_an_oracle_apart_from_it():
    # cotangent derivatives have one integer closed form, summed by
    # _b_sums for _cot_orders (the pole series' cot table and the saddle
    # frame) and _g_sum; the
    # single g_l of _g_sweep, the oracle of _g_sum, reach none of it and
    # stand on the derivative polynomials P_j(cot) of _cot_polynomials,
    # whose only other reader is the float64 screen
    callers = {"_b_sums": {"sine_products.py": {"_cot_orders", "_g_sum"}},
               "_cot_polynomials": {"sine_products.py": {"_g_sweep", "em_remainder_scan"}}}
    for path in Path(pfrac.__file__).parent.glob("*.py"):
        _assert_callers(callers, path.read_text(), path.name)
    calls = _calls((Path(pfrac.__file__).parent / "sine_products.py").read_text())
    reached, todo = set(), ["_g_sweep"]
    while todo:
        new = calls.get(todo.pop(), set()) - reached
        reached |= new
        todo.extend(new)
    assert "_cot_polynomials" in reached
    assert not reached & {"_b_sums", "_cot_orders", "_cot_weights", "_g_sum"}, reached


def test_integer_ranges_live_in_checked_int():
    # an integer argument and its range have one check,
    # precision.checked_int(value, name, low, high), and one message
    # template: no module compares a checked_int result and raises on its
    # own, and the CLI defines one integer argparse type, which calls it,
    # and one comma-list wrapper
    def calls(node, name):
        return any(isinstance(c, ast.Call) and isinstance(c.func, ast.Name) and c.func.id == name
                   for c in ast.walk(node))

    for path in Path(pfrac.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        for func in (f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)):
            checked = {t.id for a in ast.walk(func) if isinstance(a, ast.Assign)
                       and calls(a.value, "checked_int")
                       for target in a.targets for t in ast.walk(target) if isinstance(t, ast.Name)}
            for node in ast.walk(func):
                if not (isinstance(node, ast.If) and any(isinstance(s, ast.Raise) for s in node.body)):
                    continue
                for cmp in (c for c in ast.walk(node.test) if isinstance(c, ast.Compare)):
                    for operand in (cmp.left, *cmp.comparators):
                        own = (isinstance(operand, ast.Name) and operand.id in checked
                               or isinstance(operand, ast.Call)
                               and getattr(operand.func, "id", None) == "checked_int")
                        assert not own, (path.name, func.name, ast.unparse(node.test))
    tree = ast.parse((Path(pfrac.__file__).parent / "cli.py").read_text())
    top = [f for f in tree.body if isinstance(f, ast.FunctionDef)]
    assert [f.name for f in top if calls(f, "int")] == ["_bounded"]
    assert calls(next(f for f in top if f.name == "_bounded"), "checked_int")
    splits = [f.name for f in top for c in ast.walk(f) if isinstance(c, ast.Call)
              and getattr(c.func, "attr", None) == "split"
              and [ast.unparse(x) for x in c.args] == ["','"]]
    assert splits == ["_list_of"]


def test_every_import_is_read():
    # a module imports only what it reads: every name an import binds in a
    # pfrac module is loaded somewhere in that module or re-exported in its
    # __all__ (__init__.py imports to re-export, and __future__ binds
    # nothing)
    for path in Path(pfrac.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        bound = {(alias.asname or alias.name).split(".")[0]
                 for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                 and getattr(node, "module", None) != "__future__" for alias in node.names}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        exported = {elt.value for node in tree.body if isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                    for elt in node.value.elts}
        assert bound <= read | exported, (path.name, bound - read - exported)
