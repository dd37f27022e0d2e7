package main

import "testing"

// Each checker accepts a known solution and rejects the same solution
// with one swap applied.

func swapped(p []int, i, j int) []int {
	q := append([]int(nil), p...)
	q[i], q[j] = q[j], q[i]
	return q
}

func TestCostasChecker(t *testing.T) {
	// Welch construction, p = 11, primitive root 2: row of column i is
	// 2^(i+1) mod 11, minus one.
	sol := []int{1, 3, 7, 4, 9, 8, 6, 2, 5, 0}
	if !isCostas(sol) {
		t.Fatalf("valid Costas array rejected: %v", sol)
	}
	if isCostas(swapped(sol, 0, 1)) {
		t.Fatal("Costas array with one swap accepted")
	}
	if isCostas([]int{0, 0, 1}) {
		t.Fatal("non-permutation accepted")
	}
}

func TestCostasCost(t *testing.T) {
	sol := []int{1, 3, 7, 4, 9, 8, 6, 2, 5, 0}
	if c := costasCost(sol); c != 0 {
		t.Fatalf("cost of a Costas array = %d, want 0", c)
	}
	// The identity repeats offset 1 in every row: rows dx = 1..4 hold
	// 9, 8, 7, 6 equal offsets, so 8+7+6+5 = 26 repeats.
	id := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	if c := costasCost(id); c != 26 {
		t.Fatalf("cost of the identity = %d, want 26", c)
	}
	if c := costasCost(swapped(sol, 0, 1)); c == 0 {
		t.Fatal("one swap away from a Costas array yet cost 0")
	}
}

func TestNQueensChecker(t *testing.T) {
	sol := []int{1, 3, 5, 7, 2, 0, 6, 4}
	if !isNQueens(sol) {
		t.Fatalf("valid 8-queens rejected: %v", sol)
	}
	if isNQueens(swapped(sol, 0, 1)) {
		t.Fatal("8-queens with one swap accepted")
	}
}

func TestAllIntervalChecker(t *testing.T) {
	// The zig-zag series 0, n-1, 1, n-2, … has differences n-1, n-2, …, 1.
	sol := []int{0, 7, 1, 6, 2, 5, 3, 4}
	if !isAllInterval(sol) {
		t.Fatalf("valid all-interval series rejected: %v", sol)
	}
	if isAllInterval(swapped(sol, 0, 1)) {
		t.Fatal("all-interval series with one swap accepted")
	}
}

func TestMagicSquareChecker(t *testing.T) {
	// Lo Shu square 2 7 6 / 9 5 1 / 4 3 8, stored as value-1.
	sol := []int{1, 6, 5, 8, 4, 0, 3, 2, 7}
	if !isMagicSquare(sol, 3) {
		t.Fatalf("valid magic square rejected: %v", sol)
	}
	if isMagicSquare(swapped(sol, 0, 1), 3) {
		t.Fatal("magic square with one swap accepted")
	}
}

func TestCheckSolutionDispatch(t *testing.T) {
	if !checkSolution("costas", map[string]int{"n": 10}, []int{1, 3, 7, 4, 9, 8, 6, 2, 5, 0}) {
		t.Fatal("costas dispatch rejected a valid array")
	}
	if checkSolution("costas", map[string]int{"n": 11}, []int{1, 3, 7, 4, 9, 8, 6, 2, 5, 0}) {
		t.Fatal("costas dispatch accepted an array of the wrong order")
	}
	if checkSolution("unknown", nil, []int{0}) {
		t.Fatal("unknown model accepted")
	}
}

func TestContainsField(t *testing.T) {
	body := []byte(`{"spec":"nqueens n=64","options":{"seed":1234}}`)
	if !containsField(body, `"seed":1234`) {
		t.Fatal("exact field not found")
	}
	if containsField(body, `"seed":123`) {
		t.Fatal("a prefix of the seed matched")
	}
}
