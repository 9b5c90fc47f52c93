#!/usr/bin/env python3
"""Field towers, minimal polynomials, and the factorization of x^n - 1.

Builds GF(3) < GF(81), takes the primitive 20th root of unity beta, and
factors x^20 - 1 into the minimal polynomials of the beta-power cosets.
Polynomials have GF(3) coefficients; their roots are found by evaluating
them at top-field points with `poly_eval`.
"""

from cosetforge import cosets, gf

t = gf.build_tower(3, 1, 4)
print(f"tower GF(3) < GF(81), modulus coefficients (ascending): {t.modulus}")
print(f"alpha = x has multiplicative order {t.element_order(t.alpha)}")

n = 20
print(f"\nminimal polynomials of beta^i over GF(3), beta = alpha^{(t.order - 1) // n}:")
product = gf.Polynomial((1,))
for lead in cosets.coset_leaders(3, n):
    mp = gf.minimal_polynomial(t, n, lead)
    product = gf.poly_mul(t, product, mp)
    print(f"  coset of {lead:>2} (size {cosets.cyclotomic_coset(3, n, lead).size}):  {mp}")
xn1 = gf.xn_minus_one(t, n)
print(f"\nproduct of all of them: {product}")
print(f"x^{n} - 1 over GF(3):    {xn1}")
print(f"equal? {product == xn1}")

beta = t.pow(t.alpha, (t.order - 1) // n)
mp1 = gf.minimal_polynomial(t, n, 1)
roots = [j for j in range(n) if gf.poly_eval(t, mp1, t.pow(beta, j)) == 0]
print(f"\nroots beta^j of the coset-1 minimal polynomial, evaluated in GF(81): j in {roots}")

print("\nsubfield arithmetic inside a proper tower, GF(4) < GF(256):")
t4 = gf.build_tower(2, 2, 4)
print(f"  omega = alpha^{t4.subfield_gen_exp} generates GF(4)*")
add = [[int(t4.q_add[a, b]) for b in range(4)] for a in range(4)]
mul = [[int(t4.q_mul[a, b]) for b in range(4)] for a in range(4)]
print(f"  GF(4) addition table:       {add}")
print(f"  GF(4) multiplication table: {mul}")
