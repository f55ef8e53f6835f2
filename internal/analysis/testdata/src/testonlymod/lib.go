// Package lib has its nested bench module as its only caller.
package lib

func UsedByBench() int { return 1 }

func Unused() int { return 2 } // want `nothing outside tests uses Unused`
