module clobbernvm/bench

go 1.23

require clobbernvm v0.0.0

replace clobbernvm => ../
