//go:build matopt_poison

// This file is built only by `make poison`. It fills every array a
// Frontier search takes from its scratch with junk (all-ones key words,
// NaN costs, −1 indices), so a search that reads scratch memory it
// neither wrote nor cleared changes a recorded plan hash.

package core

func init() { poisoned = true }
