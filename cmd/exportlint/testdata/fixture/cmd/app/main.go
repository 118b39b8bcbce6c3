package main

import "fix/internal/lib"

func main() {
	lib.Used()
	var t lib.T
	t.Called()
}
