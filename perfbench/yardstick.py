"""Fixed yardstick work that measures how fast the machine is right now.

    python3 yardstick.py

The benchmark runs this script next to the fglthh jobs and divides their
times by its time.  It imports nothing from fglthh, so no change to the
package changes it.  Its mix resembles the package's hot loops: integer
row elimination with growing entries (Bareiss), and products of sparse
polynomials kept in dicts.  It takes about 1 s on the 2-core development
box.  Changing it changes every normalized figure, so it stays frozen.
"""


def row_elimination(n, rounds):
    for r in range(rounds):
        a = [[(i * 7919 + j * 104729 + r) % 1009 - 504 for j in range(n)]
             for i in range(n)]
        prev = 1
        for k in range(n - 1):
            pivot_row = a[k]
            pivot = pivot_row[k] or 1
            for i in range(k + 1, n):
                row = a[i]
                f = row[k]
                for j in range(k, n):
                    row[j] = (row[j] * pivot - f * pivot_row[j]) // prev
            prev = pivot


def polynomial_products(terms, reps):
    base = {(i % 7, i % 5, i % 3, i % 11): i - terms // 2 for i in range(terms)}
    for _ in range(reps):
        out = {}
        for m1, c1 in base.items():
            for m2, c2 in base.items():
                m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2], m1[3] + m2[3])
                s = out.get(m, 0) + c1 * c2
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)


if __name__ == "__main__":
    row_elimination(90, 18)
    polynomial_products(300, 13)
