package main

// Independent output checkers. Every solution the benchmark receives is
// verified here, with code that shares nothing with the program's own
// validators (costas.IsCostas, registry Entry.Valid, …): a fault that
// makes the solver and its validator agree on a wrong answer still fails
// the run.

// isPerm reports whether p is a permutation of {0..len(p)-1}.
func isPerm(p []int) bool {
	seen := make([]bool, len(p))
	for _, v := range p {
		if v < 0 || v >= len(p) || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// isCostas checks the definition directly: the n(n-1)/2 displacement
// vectors (j-i, p[j]-p[i]) between the marks are pairwise distinct.
func isCostas(p []int) bool {
	n := len(p)
	if n == 0 || !isPerm(p) {
		return false
	}
	seen := make(map[[2]int]bool, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := [2]int{j - i, p[j] - p[i]}
			if seen[v] {
				return false
			}
			seen[v] = true
		}
	}
	return true
}

// costasCost recomputes the Costas model's cost of a configuration: for
// each displacement dx = 1..⌊(n-1)/2⌋ (Chang's bound), every repeat of a
// vertical offset beyond its first occurrence is one error.
func costasCost(p []int) int {
	n := len(p)
	depth := (n - 1) / 2
	if depth < 1 {
		depth = 1
	}
	cost := 0
	for dx := 1; dx <= depth && dx < n; dx++ {
		count := make(map[int]int, n)
		for i := 0; i+dx < n; i++ {
			dy := p[i+dx] - p[i]
			if count[dy] > 0 {
				cost++
			}
			count[dy]++
		}
	}
	return cost
}

// isNQueens: queen i sits in column i, row p[i]; no two queens share a
// row or a diagonal.
func isNQueens(p []int) bool {
	n := len(p)
	if n == 0 || !isPerm(p) {
		return false
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dr := p[j] - p[i]
			if dr == j-i || dr == i-j {
				return false
			}
		}
	}
	return true
}

// isAllInterval: a permutation of {0..n-1} whose n-1 adjacent
// differences |p[i+1]-p[i]| are pairwise distinct.
func isAllInterval(p []int) bool {
	n := len(p)
	if n == 0 || !isPerm(p) {
		return false
	}
	seen := map[int]bool{}
	for i := 0; i+1 < n; i++ {
		d := p[i+1] - p[i]
		if d < 0 {
			d = -d
		}
		if seen[d] {
			return false
		}
		seen[d] = true
	}
	return true
}

// isMagicSquare: p lists a k×k square row by row, cell value p[i]+1;
// every row, column and both diagonals sum to k(k²+1)/2.
func isMagicSquare(p []int, k int) bool {
	if k < 1 || len(p) != k*k || !isPerm(p) {
		return false
	}
	want := k * (k*k + 1) / 2
	cell := func(r, c int) int { return p[r*k+c] + 1 }
	diag, anti := 0, 0
	for r := 0; r < k; r++ {
		row, col := 0, 0
		for c := 0; c < k; c++ {
			row += cell(r, c)
			col += cell(c, r)
		}
		if row != want || col != want {
			return false
		}
		diag += cell(r, r)
		anti += cell(r, k-1-r)
	}
	return diag == want && anti == want
}

// checkSolution verifies sol against the named model with its integer
// parameters (as in a registry spec: costas n, nqueens n, allinterval n,
// magicsquare k).
func checkSolution(model string, params map[string]int, sol []int) bool {
	switch model {
	case "costas":
		return len(sol) == params["n"] && isCostas(sol)
	case "nqueens":
		return len(sol) == params["n"] && isNQueens(sol)
	case "allinterval":
		return len(sol) == params["n"] && isAllInterval(sol)
	case "magicsquare":
		return isMagicSquare(sol, params["k"])
	}
	return false
}
