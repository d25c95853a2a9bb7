let wait sched ~at v =
  Wake_schedule.next_wake sched v ~after:at - at

let expected_wait ~rate = (float_of_int rate +. 1.) /. 2.

let max_wait ~rate = 2 * rate
