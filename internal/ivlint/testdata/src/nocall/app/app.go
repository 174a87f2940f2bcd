// Command app is the nocaller golden package that references lib.
package main

import "nocall/lib"

func main() {
	_ = lib.Used()
	f := lib.Value
	f()
	var t lib.T
	t.Called()
	g := (*lib.T).Expr
	g(&t)
}

// orphan has no caller.
func orphan() {} // want `orphan has no caller`
