"""Reversible 16-state extensions and self-duality."""
from qcadc import reversible
from qcadc.ca import rule_from_wolfram

RULE_232, RULE_184 = rule_from_wolfram(232), rule_from_wolfram(184)


def test_extend_rule_232_example():
    ext = reversible.extend_rule(RULE_232)
    assert ext.apply(1, 1, 0, 0) == (1, 1, 0, 1)
    assert ext.apply(0, 0, 0, 0) == (0, 0, 0, 0)


def test_extension_fixes_first_three_bits():
    for code in (0, 30, 110, 232, 255):
        ext = reversible.extend_rule(rule_from_wolfram(code))
        for s in range(16):
            assert ext.table[s] >> 1 == s >> 1


def test_all_rules_involution_and_permutation():
    for code in range(256):
        ext = reversible.extend_rule(rule_from_wolfram(code))
        assert reversible.is_involution(ext), code
        assert reversible.is_permutation(ext), code


def test_restriction_reproduces_base_rule():
    for code in (30, 184, 232):
        rule = rule_from_wolfram(code)
        ext = reversible.extend_rule(rule)
        for s1 in (0, 1):
            for s2 in (0, 1):
                for s3 in (0, 1):
                    assert ext.apply(s1, s2, s3, 0)[3] == rule(s1, s2, s3)


def test_corrupted_map_is_not_permutation():
    ext = reversible.extend_rule(RULE_232)
    table = list(ext.table)
    table[5] = table[4]  # two inputs, one output
    corrupted = reversible.ExtendedRule(ext.base, tuple(table))
    assert not reversible.is_permutation(corrupted)


def test_self_duality_verdicts():
    assert reversible.is_self_dual(RULE_232)
    assert not reversible.is_self_dual(RULE_184)
    assert reversible.is_self_dual(rule_from_wolfram(51))  # f = not(center)


def test_self_dual_rule_count_is_stable():
    rows = reversible.audit_all_rules()
    assert len(rows) == 256
    assert sum(1 for _, self_dual, _ in rows if self_dual) == 16
    assert all(perm_ok for _, _, perm_ok in rows)
    by_code = {code: self_dual for code, self_dual, _ in rows}
    assert by_code[232] and not by_code[184] and by_code[51]
