module ickpt/bench

go 1.22

require ickpt v0.0.0

replace ickpt => ../
