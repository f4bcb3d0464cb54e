package main

import "syscall"

// childAttr makes a child die with its parent, so a benchmark killed
// from outside leaves no measuring process behind.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
